import math
from dataclasses import replace

import numpy as np
import pytest

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

