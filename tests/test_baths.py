import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from models import scalar_occupation, scalar_spectral_density
from qthermo.baths import BathSpec, occupation, spectral_density, verify_kms_ratio


def ohmic(t=1.0, **kw):
    kw.setdefault("label", "b")
    kw.setdefault("form_factor", "ohmic")
    kw.setdefault("gamma", 0.5)
    kw.setdefault("cutoff", 10.0)
    return BathSpec(temperature=t, **kw)


class TestSpecValidation:
    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(label="b", temperature=-1.0)

    def test_bose_positive_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            BathSpec(label="b", temperature=1.0, statistics="bose", mu=0.5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="form factor"):
            BathSpec(label="b", temperature=1.0, form_factor="lorentz")


class TestOccupation:
    def test_fermi_at_mu(self):
        spec = BathSpec(label="b", temperature=1.0, statistics="fermi", mu=0.3)
        assert occupation(0.3, spec) == pytest.approx(0.5)

    def test_bose_log2(self):
        spec = ohmic(1.0)
        assert occupation(math.log(2.0), spec) == pytest.approx(1.0, abs=1e-12)

    def test_fermi_zero_temperature_step(self):
        spec = BathSpec(label="b", temperature=0.0, statistics="fermi", mu=1.0)
        assert occupation(0.5, spec) == 1.0
        assert occupation(1.5, spec) == 0.0
        assert occupation(1.0, spec) == 0.5

    def test_bose_pole_rejected(self):
        spec = ohmic(1.0, mu=-0.5)
        with pytest.raises(ValueError, match="pole|undefined"):
            occupation(-0.6, spec)

    def test_bose_zero_temperature(self):
        spec = ohmic(0.0)
        assert occupation(1.0, spec) == 0.0


class TestSpectralDensity:
    def test_infinite_temperature_symmetric(self):
        spec = BathSpec(label="b", temperature=math.inf, form_factor="flat",
                        gamma=0.7, cutoff=5.0)
        for w in (0.2, 1.0, 3.3):
            assert spectral_density(w, spec) == spectral_density(-w, spec)

    def test_ohmic_ratio_boltzmann(self):
        spec = ohmic(1.0)
        ratio = spectral_density(-1.0, spec) / spectral_density(1.0, spec)
        assert ratio == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_temperature_no_absorption(self):
        spec = ohmic(0.0)
        assert spectral_density(-1.0, spec) == 0.0
        assert spectral_density(1.0, spec) > 0.0

    def test_flat_bath_cutoff(self):
        spec = BathSpec(label="b", temperature=math.inf, form_factor="flat",
                        gamma=0.7, cutoff=5.0)
        assert spectral_density(6.0, spec) == 0.0

    def test_ohmic_zero_frequency_limit(self):
        spec = ohmic(2.0)
        # J(w)(1+n(w)) -> gamma T as w -> 0
        assert spectral_density(0.0, spec) == pytest.approx(0.5 * 2.0, abs=1e-12)
        assert spectral_density(1e-8, spec) == pytest.approx(
            spectral_density(0.0, spec), rel=1e-6
        )

    def test_flat_bose_zero_frequency_pole(self):
        spec = BathSpec(label="b", temperature=1.0, form_factor="flat",
                        gamma=0.7, cutoff=5.0)
        with pytest.raises(ValueError, match="diverges"):
            spectral_density(0.0, spec)

    def test_fermionic_emission_bracket(self):
        spec = BathSpec(label="b", temperature=1.0, statistics="fermi",
                        form_factor="flat", gamma=1.0, cutoff=10.0)
        n = occupation(2.0, spec)
        assert spectral_density(2.0, spec) == pytest.approx(1.0 - n)
        assert spectral_density(-2.0, spec) == pytest.approx(n)

    def test_nonnegative_everywhere(self):
        for spec in (
            ohmic(0.7),
            ohmic(3.0, statistics="fermi"),
            BathSpec(label="b", temperature=2.0, form_factor="power",
                     exponent=3.0, gamma=0.4, cutoff=8.0),
        ):
            for w in np.linspace(-6, 6, 61):
                if w == 0 and spec.form_factor == "flat":
                    continue
                assert spectral_density(float(w), spec) >= 0.0

    def test_emission_monotone_in_temperature(self):
        # bosonic emission side grows with 1 + n
        vals = [
            spectral_density(1.5, ohmic(t)) for t in (0.2, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_zero_coupling_detaches(self):
        spec = ohmic(1.0, coupling=0.0)
        assert spectral_density(1.0, spec) == 0.0


class TestKmsRatio:
    @pytest.mark.parametrize("spec", [
        ohmic(0.8),
        ohmic(2.5, statistics="fermi"),
        BathSpec(label="b", temperature=1.3, form_factor="power", exponent=3.0,
                 gamma=0.4, cutoff=8.0),
        BathSpec(label="b", temperature=0.7, form_factor="flat", gamma=0.4,
                 cutoff=40.0, statistics="fermi"),
    ])
    def test_builtin_families_satisfy_kms(self, spec):
        omegas = np.geomspace(1e-2, 5.0, 100)
        assert verify_kms_ratio(spec, omegas) <= 1e-10

    def test_corrupted_rates_detected(self):
        spec = replace(ohmic(1.0), absorption_scale=1.1)
        resid = verify_kms_ratio(spec, np.geomspace(0.1, 3.0, 20))
        # residual is 0.1 exp(-beta w) at each sample, approx 0.1 at small w
        assert 0.08 <= resid <= 0.11

    def test_beta_zero_symmetry(self):
        spec = BathSpec(label="b", temperature=math.inf, form_factor="flat",
                        gamma=0.7, cutoff=10.0)
        assert verify_kms_ratio(spec, np.linspace(0.1, 5.0, 30)) <= 1e-10

    def test_fermi_with_chemical_potential(self):
        spec = BathSpec(label="b", temperature=1.4, statistics="fermi", mu=0.6,
                        form_factor="flat", gamma=1.0, cutoff=30.0)
        assert verify_kms_ratio(spec, np.linspace(0.1, 4.0, 40)) <= 1e-10



class TestColdBosons:
    @pytest.mark.parametrize("form_factor", ["flat", "ohmic", "power"])
    def test_rates_stay_finite_up_to_beta_omega_1e6(self, form_factor):
        # 1 / (exp(beta omega) - 1) overflowed a double above beta omega =
        # 709.78; there it is exp(-beta omega) to double precision
        spec = BathSpec(label="b", temperature=1e-3, form_factor=form_factor, gamma=0.3,
                        cutoff=2e3, exponent=2.0)
        omega = np.geomspace(1e-3, 1e3, 61)  # beta omega from 1 to 1e6
        for w in np.concatenate([omega, -omega]):
            r = spectral_density(w, spec)
            assert np.isfinite(r) and r >= 0.0
        n = occupation(omega, spec)
        assert np.isfinite(n).all() and (n >= 0.0).all()
        assert occupation(1.0, spec) == math.exp(-1e3)
        big = omega * 1e3 > 700
        assert np.array_equal(n[big], [math.exp(-x) for x in (omega[big] * 1e3).tolist()])


def _outcome(f):
    """The bits of f's value (a float or an array), or the type and
    message of its error."""
    try:
        return "value", np.asarray(f(), dtype=float).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


_MAGNITUDES = st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.5, 40.0, 1e3, 1e150, 1e300])


@st.composite
def _baths(draw):
    statistics = draw(st.sampled_from(["bose", "fermi"]))
    mu = draw(st.sampled_from([0.0, -0.4] + ([0.7] if statistics == "fermi" else [])))
    return BathSpec(
        label="b",
        temperature=draw(st.sampled_from([0.0, 1e-3, 0.35, 1.0, 7.0, math.inf])),
        statistics=statistics, mu=mu,
        form_factor=draw(st.sampled_from(["flat", "ohmic", "power"])),
        gamma=draw(st.sampled_from([0.0, 0.2, 1.5])),
        cutoff=draw(st.sampled_from([0.5, 10.0, 1e3])),
        exponent=draw(st.sampled_from([0.5, 1.0, 3.0])),
        coupling=draw(st.sampled_from([0.0, 1.0, 0.37])),
        absorption_scale=draw(st.sampled_from([1.0, 1.1, 0.0])),
    )


class TestArrayRatesAgainstTheFloatFormula:
    """``spectral_density`` and ``occupation`` read arrays; each entry is
    bitwise the float formula of ``tests/models.py``, which takes its
    transcendentals from ``math`` one float at a time, and an array that
    fails raises its first failing entry's error."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_baths(), st.lists(st.tuples(_MAGNITUDES, st.floats(0.5, 2.0), st.booleans()),
                              min_size=1, max_size=12))
    def test_each_entry_is_the_float_formula(self, spec, draws):
        omega = np.array([m * f * (-1.0 if neg else 1.0) for m, f, neg in draws])
        ref = [_outcome(lambda: scalar_spectral_density(w, spec)) for w in omega.tolist()]
        assert [_outcome(lambda: spectral_density(w, spec)) for w in omega.tolist()] == ref
        first_error = next((r for r in ref if r[0] != "value"), None)
        got = _outcome(lambda: spectral_density(omega, spec))
        if first_error is None:
            assert got == ("value", b"".join(r[1] for r in ref))
            assert spectral_density(omega.reshape(-1, 1), spec).shape == (len(omega), 1)
        else:
            assert got == first_error
        x = np.abs(omega) * np.sign(omega + 0.5)
        occ = [_outcome(lambda: scalar_occupation(v, spec)) for v in x.tolist()]
        assert [_outcome(lambda: occupation(v, spec)) for v in x.tolist()] == occ
        first_error = next((r for r in occ if r[0] != "value"), None)
        assert _outcome(lambda: occupation(x, spec)) == (
            first_error or ("value", b"".join(r[1] for r in occ)))

    def test_a_float_gives_a_float(self):
        spec = ohmic(1.0)
        assert isinstance(spectral_density(1.0, spec), float)
        assert isinstance(occupation(1.0, spec), float)
        assert spectral_density(np.array([1.0, -1.0]), spec).shape == (2,)

    def test_first_failing_entry_raises_in_array_order(self):
        # a negative exponent fails at 0 with ZeroDivisionError and at a
        # subnormal with OverflowError; the array raises the earlier entry's
        spec = BathSpec(label="b", temperature=math.inf, form_factor="power", exponent=-2.0)
        for omega, error in (([1.0, 5e-324, 0.0], OverflowError),
                             ([1.0, 0.0, 5e-324], ZeroDivisionError)):
            with pytest.raises(error):
                spectral_density(np.array(omega), spec)
