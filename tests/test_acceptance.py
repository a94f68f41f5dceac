"""Acceptance suite: every law-certification criterion at its stated
tolerance, one printed verdict line per criterion.

Archived regression values (first measured on the seeded configurations
below, asserted thereafter):
  ETA_AT_MAX_POWER  -- efficiency at maximum power of the reference qubit
                       cycle at temperature ratio 4
  ETH_GAP           -- diagonal-vs-microcanonical gap of the seeded
                       8-spin chain
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qthermo.baths import BathSpec
from qthermo.floquet import (
    ModulatedGapQubit,
    build_floquet_generator,
    floquet_decompose,
    harmonic_decompose,
    limit_cycle_laws,
)
from qthermo.lindblad import (
    build_davies,
    davies_audit,
    heat_currents,
    stationary_state,
    trajectory,
)
from qthermo.machines import (
    CycleSpec,
    OscillatorMedium,
    QubitMedium,
    TricycleSpec,
    compose_cycle,
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
    cp_check,
    expect,
    matexp,
    random_density,
    random_hermitian,
    trace_distance,
)
from qthermo.states import (
    diagonal_vs_microcanonical,
    ergotropy,
    gibbs_state,
    heisenberg_chain,
    is_completely_passive,
    is_passive,
    kms_check,
    relative_entropy,
    site_operator,
    two_point_correlation,
)

SEED = 20260810

# regression archive (see module docstring)
ETA_AT_MAX_POWER = 0.4765
ETH_GAP = 0.11432


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {tag}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _rng():
    return np.random.Generator(np.random.Philox(key=SEED))


def ohmic(label, t, gamma=0.2, cutoff=20.0):
    return BathSpec(label=label, temperature=t, form_factor="ohmic",
                    gamma=gamma, cutoff=cutoff)


def qubit_h(omega=1.0):
    return Operator.hermitian(0.5 * omega * PAULI_Z)


def oscillator_pair(d=10, omega=1.0):
    h = Operator.hermitian(omega * np.diag(np.arange(d, dtype=float)))
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    return h, Operator.hermitian(a + a.conj().T)


@pytest.fixture(scope="module")
def davies_qubit():
    return build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic("bath", 1.0))])


@pytest.fixture(scope="module")
def davies_oscillator():
    h, x = oscillator_pair()
    return build_davies(h, [(x, ohmic("bath", 0.8, gamma=0.3))])


@pytest.fixture(scope="module")
def otto_configs():
    base = dict(
        medium=QubitMedium(), omega_h=2.0, omega_c=1.0,
        bath_h=ohmic("hot", 2.0), bath_c=ohmic("cold", 0.5),
        tau_h=30.0, tau_c=30.0, tau_hc=1.0, tau_ch=1.0,
    )
    return [
        CycleSpec(**base),
        CycleSpec(**{**base, "tau_h": 2.0, "tau_c": 2.0}),
        CycleSpec(**{**base, "order": "refrigerator", "omega_c": 0.4}),
        CycleSpec(**{**base, "medium": QubitMedium(transverse=0.5),
                     "protocol": "sudden"}),
        CycleSpec(**{**base, "medium": QubitMedium(transverse=0.5),
                     "protocol": "linear-ramp", "tau_hc": 0.05, "tau_ch": 0.05}),
        CycleSpec(**{**base, "medium": OscillatorMedium(levels=8),
                     "bath_h": ohmic("hot", 1.5), "bath_c": ohmic("cold", 0.4)}),
    ]


@pytest.fixture(scope="module")
def floquet_machine():
    sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
    dec = floquet_decompose(sched, sched.tau, 512)
    cold = BathSpec(label="cold", temperature=1.2, form_factor="flat",
                    gamma=0.1, cutoff=0.7)
    hot = BathSpec(label="hot", temperature=2.0, form_factor="power",
                   exponent=2.0, gamma=0.05, cutoff=10.0)
    sx = Operator.hermitian(PAULI_X)
    channels = harmonic_decompose(dec, sx, 8, (hot, cold))
    gen = build_floquet_generator(channels, dec.h_av, {"hot": hot, "cold": cold})
    return sched, dec, channels, gen


def test_c01_cp_trace_suite(davies_qubit, davies_oscillator, otto_configs,
                            floquet_machine):
    worst_eig = math.inf
    worst_drift = 0.0
    props = []
    for gen in (davies_qubit, davies_oscillator, floquet_machine[3]):
        for t in (0.1, 1.0, 10.0):
            props.append(matexp(gen.liouvillian(), t))
    for spec in otto_configs:
        u_cyc, ops = compose_cycle(spec)
        props.append(u_cyc)
        props.extend(op.superop for op in ops)
    for prop in props:
        _, mineig = cp_check(prop)
        worst_eig = min(worst_eig, mineig)
        worst_drift = max(worst_drift, prop.trace_preservation_residual())
    _report(
        1, "every propagator is CP and trace preserving",
        worst_eig >= -1e-9 and worst_drift <= 1e-9,
        f"min choi eig {worst_eig:.2e}, max trace drift {worst_drift:.2e}",
    )


def test_c02_zeroth_law(davies_qubit, davies_oscillator):
    rng = _rng()
    worst = 0.0
    for gen, beta in ((davies_qubit, 1.0), (davies_oscillator, 1.25)):
        evals = np.linalg.eigvals(gen.liouvillian().mat)
        decay = np.abs(evals.real)
        gamma_slow = float(np.min(decay[decay > 1e-12]))
        t_final = 50.0 / gamma_slow
        prop = matexp(gen.liouvillian(), t_final)
        target = gibbs_state(gen.h, beta)
        for _ in range(20):
            rho = random_density(gen.dim, rng)
            final = prop.apply(rho)
            worst = max(worst, trace_distance(final, target))
    _report(
        2, "qubit and 10-level oscillator relax to Gibbs from 20 random states",
        worst <= 1e-7, f"max trace distance {worst:.2e} at t = 50/gamma",
    )


def test_c03_detailed_balance_and_kms(davies_qubit, davies_oscillator):
    worst_rate = 0.0
    for gen in (davies_qubit, davies_oscillator):
        worst_rate = max(worst_rate, davies_audit(gen)["detailed_balance"])
    rng = _rng()
    worst_kms = 0.0
    for _ in range(5):
        h = random_hermitian(4, rng)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        beta = float(rng.uniform(0.3, 2.0))
        f_ab = two_point_correlation(h, beta, a, b)
        f_ba = two_point_correlation(h, beta, b, a)
        worst_kms = max(worst_kms, kms_check(f_ab, f_ba, beta))
    _report(
        3, "channel rate ratios obey detailed balance and correlation "
           "amplitudes obey the Boltzmann frequency relation",
        worst_rate <= 1e-10 and worst_kms <= 1e-9,
        f"rate residual {worst_rate:.2e}, correlation residual {worst_kms:.2e}",
    )


def test_c04_h_theorem(davies_qubit):
    rng = _rng()
    gen = davies_qubit
    rho_st = stationary_state(gen)
    worst = -math.inf
    grid = np.linspace(0.0, 25.0, 100)
    step = matexp(gen.liouvillian(), float(grid[1] - grid[0]))
    for _ in range(10):
        rho = random_density(2, rng)
        prev = relative_entropy(rho, rho_st)
        for _ in grid[1:]:
            rho = step.apply(rho)
            cur = relative_entropy(rho, rho_st)
            worst = max(worst, cur - prev)
            prev = cur
    _report(
        4, "relative entropy to the stationary state is non-increasing on "
           "10 random trajectories",
        worst <= 1e-9, f"largest step increase {worst:.2e}",
    )


def test_c05_second_law(davies_qubit, davies_oscillator, otto_configs):
    rng = _rng()
    worst_sigma = math.inf
    for gen in (davies_qubit, davies_oscillator):
        rho = random_density(gen.dim, rng)
        led = trajectory(gen, rho, np.linspace(0.05, 20.0, 80))
        worst_sigma = min(worst_sigma, float(np.min(led.entropy_production)))
    worst_cycle = math.inf
    for spec in otto_configs:
        worst_cycle = min(worst_cycle, run_otto(spec).entropy_production)
    hot = ohmic("hot", 2.0, gamma=0.1)
    work = BathSpec(label="work", temperature=math.inf, form_factor="flat",
                    gamma=0.1, cutoff=50.0)
    worst_tri = math.inf
    for omega_c in np.linspace(0.3, 2.4, 20):
        for t_c in np.linspace(0.25, 1.8, 20):
            spec = TricycleSpec(
                omega_h=3.0, omega_c=float(omega_c),
                bath_h=hot, bath_c=ohmic("cold", float(t_c), gamma=0.1),
                bath_w=work, eps=0.05,
            )
            st = tricycle_steady(spec)
            worst_tri = min(worst_tri, st.second_law_value)
    ok = worst_sigma >= -1e-9 and worst_cycle >= -1e-9 and worst_tri >= -1e-9
    _report(
        5, "entropy production is non-negative pointwise, per cycle, and "
           "across the 20x20 tricycle grid",
        ok,
        f"min rate {worst_sigma:.2e}, min per-cycle {worst_cycle:.2e}, "
        f"min tricycle margin {worst_tri:.2e}",
    )


def test_c06_first_law(floquet_machine):
    bath = ohmic("bath", 1.0, gamma=0.4, cutoff=10.0)
    sx = Operator.hermitian(PAULI_X)

    def h_of_t(t):
        return qubit_h(1.0 + 0.02 * t)

    def dh_dt(t):
        return Operator.hermitian(0.01 * PAULI_Z)

    from qthermo.lindblad import adiabatic_propagate

    led = adiabatic_propagate(h_of_t, [(sx, bath)],
                              gibbs_state(qubit_h(1.0), 1.0),
                              np.linspace(0.0, 10.0, 400),
                              dh_dt=dh_dt, substeps=8)
    ledger_ratio = led.first_law_residual() / led.current_scale()

    work = BathSpec(label="work", temperature=math.inf, form_factor="flat",
                    gamma=0.1, cutoff=50.0)
    tri = TricycleSpec(omega_h=3.0, omega_c=1.0,
                       bath_h=ohmic("hot", 2.0, gamma=0.1),
                       bath_c=ohmic("cold", 0.5, gamma=0.1),
                       bath_w=work, eps=0.05)
    tri_resid = tricycle_steady(tri).first_law_residual

    _, _, channels, gen = floquet_machine
    floq_resid = limit_cycle_laws(gen, channels).first_law_residual
    ok = ledger_ratio <= 1e-6 and tri_resid <= 1e-9 and floq_resid <= 1e-8
    _report(
        6, "first law holds on driven ledgers, the tricycle steady state, "
           "and the periodic limit cycle",
        ok,
        f"ledger {ledger_ratio:.2e}, tricycle {tri_resid:.2e}, "
        f"floquet {floq_resid:.2e}",
    )


def test_c07_efficiency_identities(otto_configs):
    rep = run_otto(otto_configs[0])
    eta_dev = abs(rep.efficiency - 0.5)
    eta_c = 1.0 - 0.5 / 2.0
    bound_ok = all(
        (r := run_otto(s)).efficiency is None or r.efficiency <= eta_c + 1e-9
        for s in otto_configs[:2]
    )
    work = BathSpec(label="work", temperature=math.inf, form_factor="flat",
                    gamma=0.1, cutoff=50.0)
    boundary = TricycleSpec(
        omega_h=3.0, omega_c=0.75,
        bath_h=ohmic("hot", 2.0, gamma=0.1),
        bath_c=ohmic("cold", 0.5, gamma=0.1),
        bath_w=work, eps=1e-3,
    )
    j_c = tricycle_steady(boundary).currents["cold"]
    ok = eta_dev <= 1e-8 and bound_ok and abs(j_c) <= 1e-8
    _report(
        7, "Otto efficiency identity, Carnot bound, and the reversible "
           "tricycle window boundary",
        ok, f"eta deviation {eta_dev:.2e}, boundary J_c {j_c:.2e}",
    )


def test_c08_efficiency_at_max_power():
    spec = CycleSpec(
        medium=QubitMedium(), omega_h=6.0, omega_c=3.0,
        bath_h=ohmic("hot", 4.0, gamma=2.0, cutoff=30.0),
        bath_c=ohmic("cold", 1.0, gamma=2.0, cutoff=30.0),
        tau_h=2.0, tau_c=2.0, tau_hc=0.01, tau_ch=0.01,
    )
    _, power, eta = optimize_power(
        spec,
        {"omega_c": (1.8, 5.4), "tau_h": (0.3, 6.0), "tau_c": (0.3, 6.0)},
        seed=11,
    )
    eta_ca = 1.0 - math.sqrt(1.0 / 4.0)
    rel = abs(eta - eta_ca) / eta_ca
    regression_ok = abs(eta - ETA_AT_MAX_POWER) <= 0.005
    _report(
        8, "efficiency at maximum power sits within 10% of the "
           "Novikov-Curzon-Ahlborn value at temperature ratio 4",
        power > 0 and rel <= 0.10 and regression_ok,
        f"eta {eta:.4f} vs eta_ca {eta_ca:.4f} (rel {rel:.3f}); archived "
        f"{ETA_AT_MAX_POWER}",
    )


def test_c09_sudden_limit_slope():
    spec = CycleSpec(
        medium=QubitMedium(transverse=0.4), omega_h=2.0, omega_c=1.0,
        bath_h=ohmic("hot", 2.0), bath_c=ohmic("cold", 0.5),
        tau_h=1.0, tau_c=1.0, tau_hc=1.0, tau_ch=1.0,
    )
    rows = sudden_limit_check(spec, np.geomspace(0.2, 0.004, 10))
    slope = fit_loglog_slope(rows)
    _report(
        9, "symmetric four-stroke split error scales as the cube of the "
           "stroke time",
        2.7 <= slope <= 3.3, f"fitted slope {slope:.3f}",
    )


def test_c10_friction():
    adiabatic = CycleSpec(
        medium=QubitMedium(transverse=0.5), omega_h=2.0, omega_c=1.0,
        bath_h=ohmic("hot", 2.0), bath_c=ohmic("cold", 0.5),
        tau_h=30.0, tau_c=30.0, tau_hc=1.0, tau_ch=1.0,
    )
    sudden = replace(adiabatic, protocol="sudden")
    extra_adia, _ = quantum_friction(adiabatic)
    extra_sudden, gap = quantum_friction(sudden)
    _report(
        10, "sudden driving costs strictly positive coherence work, the "
            "ideal protocol none",
        extra_sudden > 1e-6 and abs(extra_adia) <= 1e-9,
        f"sudden {extra_sudden:.3e}, adiabatic {extra_adia:.2e}, "
        f"entropy gap {gap:.3e}",
    )


def test_c11_third_law_sweep():
    work = BathSpec(label="work", temperature=math.inf, form_factor="flat",
                    gamma=0.1, cutoff=50.0)
    spec = TricycleSpec(
        omega_h=3.0, omega_c=1.0,
        bath_h=ohmic("hot", 2.0, gamma=0.1),
        bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                        exponent=3.0, gamma=0.1, cutoff=20.0),
        bath_w=work, eps=1e-3,
    )
    rows = third_law_sweep(spec, np.geomspace(0.4, 0.02, 10))
    cooling = [r for r in rows if not r.no_cooling]
    js = [r.j_c for r in cooling]
    monotone = len(cooling) == len(rows) and all(
        a > b for a, b in zip(js, js[1:])
    )
    ratios = [r.omega_c_star / r.t_c for r in cooling]
    cv = float(np.std(ratios) / np.mean(ratios))
    x = np.log([r.t_c for r in cooling])
    y = np.log(js)
    slope = float(np.polyfit(x, y, 1)[0])
    # J_c = (optimal quantum ~ T_c) * (absorption rate ~ T_c**p) ~ T_c**(p + 1)
    p = spec.bath_c.exponent
    lo, hi = p + 1 - 0.5, p + 1 + 0.5
    _report(
        11, "cooling current with the cubic bath dies monotonically with a "
            "temperature-locked frequency and a fitted exponent within 0.5 "
            f"of p + 1, in [{lo:g}, {hi:g}]",
        monotone and cv <= 0.15 and lo <= slope <= hi,
        f"monotone {monotone}, ratio CV {cv:.3f}, exponent {slope:.3f}",
    )


def test_c12_floquet_consistency(floquet_machine):
    sched, dec, channels, gen = floquet_machine
    # zero-amplitude limit against the static construction
    sched0 = ModulatedGapQubit(omega0=1.0, amplitude=0.0, big_omega=0.45)
    dec0 = floquet_decompose(sched0, sched0.tau, 512)
    sx = Operator.hermitian(PAULI_X)
    cold = BathSpec(label="cold", temperature=1.2, form_factor="flat",
                    gamma=0.1, cutoff=0.7)
    hot = BathSpec(label="hot", temperature=2.0, form_factor="power",
                   exponent=2.0, gamma=0.05, cutoff=10.0)
    ch0 = harmonic_decompose(dec0, sx, 8, (hot, cold))
    gen0 = build_floquet_generator(ch0, dec0.h_av, {"hot": hot, "cold": cold})
    rep0 = limit_cycle_laws(gen0, ch0)
    gd = build_davies(qubit_h(), [(sx, hot), (sx, cold)])
    jd = heat_currents(gd, stationary_state(gd))
    dev = max(abs(rep0.currents[k] - jd[k]) for k in jd)

    rng = _rng()
    worst_second = -math.inf
    count = 0
    while count < 50:
        omega0 = float(rng.uniform(0.7, 1.4))
        lam = float(rng.uniform(0.0, 0.8))
        omega_d = float(rng.uniform(0.35, 0.6))
        t_c = float(rng.uniform(0.5, 1.6))
        t_h = float(rng.uniform(1.6, 4.0))
        sched_i = ModulatedGapQubit(omega0=omega0, amplitude=lam,
                                    big_omega=omega_d)
        try:
            dec_i = floquet_decompose(sched_i, sched_i.tau, 256)
            cold_i = BathSpec(label="cold", temperature=t_c,
                              form_factor="flat", gamma=0.1,
                              cutoff=0.7 * omega0)
            hot_i = BathSpec(label="hot", temperature=t_h,
                             form_factor="power", exponent=2.0, gamma=0.05,
                             cutoff=10.0)
            ch_i = harmonic_decompose(dec_i, sx, 10, (hot_i, cold_i))
            gen_i = build_floquet_generator(ch_i, dec_i.h_av,
                                            {"hot": hot_i, "cold": cold_i})
            rep_i = limit_cycle_laws(gen_i, ch_i)
        except ValueError:
            continue  # folded resonance or unresolved lines: not an operating point
        worst_second = max(worst_second, rep_i.second_law_value)
        count += 1
    _report(
        12, "zero driving reproduces the static currents and the periodic "
            "second law holds at 50 random operating points",
        dev <= 1e-8 and worst_second <= 1e-9,
        f"current deviation {dev:.2e}, worst second-law value "
        f"{worst_second:.2e}",
    )


def test_c13_eth_gap():
    rng = _rng()
    n = 8
    h = heisenberg_chain(n, rng, field_scale=0.5)
    idx = 0
    for i in range(n):
        if i % 2 == 0:
            idx |= 1 << (n - 1 - i)
    psi = np.zeros(2**n)
    psi[idx] = 1.0
    a = Operator.hermitian(site_operator(n, 4, PAULI_Z))
    _, _, gap = diagonal_vs_microcanonical(h, psi, a, window=0.4)
    spectral_range = 2.0  # single-site Pauli observable
    regression_ok = abs(gap - ETH_GAP) <= 1e-3
    _report(
        13, "diagonal-ensemble average of a local observable matches the "
            "microcanonical one within 10% of its spectral range",
        gap <= 0.1 * spectral_range and regression_ok,
        f"gap {gap:.4f} (archived {ETH_GAP})",
    )


def test_c14_passivity():
    rng = _rng()
    import itertools

    worst_dev = 0.0
    min_work = math.inf
    for _ in range(500):
        d = int(rng.integers(2, 7))
        h = random_hermitian(d, rng)
        rho = random_density(d, rng)
        work, _ = ergotropy(rho, h)
        min_work = min(min_work, work)
        evals_h = np.linalg.eigvalsh(h.mat)
        lam = np.linalg.eigvalsh(rho.mat)
        best = min(
            float(np.dot(evals_h, perm)) for perm in itertools.permutations(lam)
        )
        worst_dev = max(worst_dev, abs(work - (expect(rho, h) - best)))
    gibbs_ok = is_completely_passive(
        gibbs_state(qubit_h(), 0.8), qubit_h(), 3
    )
    h3 = Operator.hermitian(np.diag([0.0, 1.0, 1.7]))
    rho3 = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    nongibbs_caught = is_passive(rho3, h3) and not is_completely_passive(rho3, h3, 3)
    _report(
        14, "ergotropy non-negative with brute-force agreement on 500 "
            "random pairs; complete passivity separates Gibbs from "
            "merely passive states",
        min_work >= -1e-10 and worst_dev <= 1e-10 and gibbs_ok and nongibbs_caught,
        f"min ergotropy {min_work:.2e}, max oracle deviation {worst_dev:.2e}",
    )
