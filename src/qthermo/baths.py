"""Bath spectral models.

A bath is described by its temperature, chemical potential, particle
statistics and a one-sided coupling form factor J(omega).  The full
spectral function R(omega) used as a transition-rate table by the
weak-coupling generator is

    R(omega > 0) = J(omega) (1 + n(omega))   bosons   (emission side)
    R(omega > 0) = J(omega) (1 - n(omega))   fermions
    R(omega < 0) = J(|omega|) n(|omega|)              (absorption side)

which satisfies the detailed-balance ratio
R(-omega) = exp(-beta (omega - mu)) R(omega) by construction.

Temperature limits: T = 0 (no absorption) and T = inf (beta = 0, the
symmetric "singular bath") are both admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BathSpec", "occupation", "spectral_density", "verify_kms_ratio"]

_FAMILIES = ("flat", "ohmic", "power")


@dataclass(frozen=True)
class BathSpec:
    """Immutable description of a thermal bath.

    form_factor families:
      flat   -- J(w) = j0 for |w| <= cutoff, else 0
      ohmic  -- J(w) = gamma * w * exp(-w / cutoff)
      power  -- J(w) = gamma * w**exponent * exp(-w / cutoff)

    ``coupling`` scales the whole rate table linearly; zero detaches the
    bath.  ``absorption_scale`` multiplies only the omega < 0 side and
    exists solely for fault injection in detailed-balance audits (1.0 is
    the physical value).
    """

    label: str
    temperature: float
    statistics: str = "bose"
    mu: float = 0.0
    form_factor: str = "ohmic"
    gamma: float = 1.0
    cutoff: float = 10.0
    exponent: float = 1.0
    coupling: float = 1.0
    absorption_scale: float = 1.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("bath temperature must be >= 0")
        if self.statistics not in ("bose", "fermi"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if self.form_factor not in _FAMILIES:
            raise ValueError(f"unknown form factor family {self.form_factor!r}")
        if self.coupling < 0:
            raise ValueError("coupling strength must be >= 0")
        if self.gamma < 0:
            raise ValueError("form factor scale must be >= 0")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be > 0")
        if self.statistics == "bose" and self.mu > 0:
            raise ValueError("bosonic bath requires mu <= 0")

    @property
    def beta(self) -> float:
        if self.temperature == 0.0:
            return math.inf
        if math.isinf(self.temperature):
            return 0.0
        return 1.0 / self.temperature


def occupation(x: float, spec: BathSpec) -> float:
    """Mean occupation 1 / (exp(beta (x - mu)) -+ 1); minus for bosons,
    plus for fermions."""
    beta = spec.beta
    if spec.statistics == "bose":
        if x <= spec.mu:
            raise ValueError(
                f"bosonic occupation undefined at x = {x} <= mu = {spec.mu}"
            )
        if beta == 0.0:
            raise ValueError("bosonic occupation diverges at beta = 0")
        if math.isinf(beta):
            return 0.0
        arg = beta * (x - spec.mu)
        return 1.0 / math.expm1(arg)
    # fermi
    if beta == 0.0:
        return 0.5
    if math.isinf(beta):
        if x < spec.mu:
            return 1.0
        if x > spec.mu:
            return 0.0
        return 0.5
    arg = beta * (x - spec.mu)
    if arg > 700:
        return math.exp(-arg)
    return 1.0 / (math.exp(arg) + 1.0)


def _form_factor(w: float, spec: BathSpec) -> float:
    """One-sided form factor J(w), defined for w >= 0."""
    if w < 0:
        raise ValueError("form factor takes w >= 0")
    if spec.form_factor == "flat":
        return spec.gamma if w <= spec.cutoff else 0.0
    if spec.form_factor == "ohmic":
        return spec.gamma * w * math.exp(-w / spec.cutoff)
    return spec.gamma * w**spec.exponent * math.exp(-w / spec.cutoff)


def _zero_frequency_limit(spec: BathSpec) -> float:
    """lim_{w -> 0+} of the emission side; equals the absorption limit."""
    beta = spec.beta
    if spec.statistics == "fermi":
        return _form_factor(0.0, spec) * (1.0 - occupation(0.0, spec))
    # bose: J(w) (1 + n(w)) -> J(w) / (beta w) as w -> 0 when mu = 0
    if math.isinf(beta):
        return 0.0
    if spec.mu < 0.0:
        return _form_factor(0.0, spec) * (1.0 + occupation(0.0, spec))
    # mu == 0
    if spec.form_factor == "flat":
        raise ValueError(
            "flat bosonic bath diverges at omega = 0; use an ohmic or power form factor"
        )
    p = 1.0 if spec.form_factor == "ohmic" else spec.exponent
    if p > 1.0:
        return 0.0
    if p == 1.0:
        return spec.gamma / beta
    raise ValueError("sub-ohmic bosonic bath diverges at omega = 0")


def spectral_density(omega: float, spec: BathSpec) -> float:
    """Transition-rate table R(omega) of the bath, including the coupling
    scale.  omega > 0 is the emission side, omega < 0 absorption."""
    if spec.coupling == 0.0:
        return 0.0
    beta = spec.beta
    if beta == 0.0:
        # singular infinite-temperature bath: symmetric rate table
        return spec.coupling * _form_factor(abs(omega), spec) * (
            spec.absorption_scale if omega < 0 else 1.0
        )
    if omega == 0.0:
        return spec.coupling * _zero_frequency_limit(spec)
    w = abs(omega)
    if spec.statistics == "bose" and w <= spec.mu:
        raise ValueError(f"bosonic bath pole: |omega| = {w} <= mu = {spec.mu}")
    n = occupation(w, spec)
    if omega > 0:
        bracket = (1.0 + n) if spec.statistics == "bose" else (1.0 - n)
        return spec.coupling * _form_factor(w, spec) * bracket
    return spec.coupling * _form_factor(w, spec) * n * spec.absorption_scale


def verify_kms_ratio(spec: BathSpec, omegas) -> float:
    """Max residual of R(-w) = exp(-beta (w - mu)) R(w) over the samples.

    The chemical potential enters for particle-exchanging couplings,
    reducing to the plain Boltzmann factor at mu = 0; a bath with
    ``absorption_scale`` != 1 fails the relation by construction.
    """
    beta = spec.beta
    eps = 1e-300
    worst = 0.0
    for w in np.atleast_1d(np.asarray(omegas, dtype=float)):
        r_plus = spectral_density(float(w), spec)
        r_minus = spectral_density(float(-w), spec)
        arg = -beta * (w - spec.mu) if not math.isinf(beta) else (
            -math.inf if w > spec.mu else (math.inf if w < spec.mu else 0.0)
        )
        if arg > 700:
            # Boltzmann factor overflows; test the inverted relation instead.
            resid = abs(r_plus - math.exp(-arg) * r_minus) / (abs(r_minus) + eps)
        else:
            factor = math.exp(arg) if not math.isinf(arg) else 0.0
            resid = abs(r_minus - factor * r_plus) / (abs(r_plus) + eps)
        worst = max(worst, resid)
    return worst
