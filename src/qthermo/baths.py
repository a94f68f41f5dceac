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


def _zero_temperature_flow(bath: BathSpec) -> ValueError:
    """The error of a bath at T = 0 in an entropy-flow sum of Q / T."""
    return ValueError(f"bath {bath.label!r} is at T = 0, where its entropy flow Q / T is undefined")


def _math(f, x: np.ndarray) -> np.ndarray:
    """The scalar function f, built on ``math``, of every entry of the 1-d
    array x.  numpy's ``exp``, ``expm1`` and ``power`` need not give libm's
    bits; the rates keep those of the float formula."""
    return np.array([f(v) for v in x.tolist()], dtype=float)


def occupation(x, spec: BathSpec):
    """Mean occupation 1 / (exp(beta (x - mu)) -+ 1), minus for bosons,
    plus for fermions, of a float or of every entry of a float array.
    Above beta (x - mu) = 700 both are exp(-beta (x - mu)), which equals
    them to double precision where the exponential would overflow.  An
    array that fails raises the message of its first failing entry."""
    x = np.asarray(x, dtype=float)
    return _first_error(_occupation, x.reshape(-1), spec).reshape(x.shape)[()]


def _first_error(f, x: np.ndarray, spec: BathSpec) -> np.ndarray:
    """f(x, spec) of a 1-d array x.  Should it fail, the entries are taken
    one at a time, so that the error raised is that of the first entry
    that fails alone."""
    # Python floats overflow to inf without a warning; so do these
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return f(x, spec)
        except (ValueError, ArithmeticError):
            if x.size > 1:
                for v in x.tolist():
                    f(np.array([v]), spec)
            raise


def _occupation(x: np.ndarray, spec: BathSpec) -> np.ndarray:
    """:func:`occupation` of a 1-d array, each entry through ``math``."""
    beta, mu = spec.beta, spec.mu
    if spec.statistics == "bose":
        below = x <= mu
        if below.any():
            raise ValueError(
                f"bosonic occupation undefined at x = {x[below.argmax()].item()} <= mu = {mu}"
            )
        if beta == 0.0 and x.size:
            raise ValueError("bosonic occupation diverges at beta = 0")
        if math.isinf(beta):
            return np.zeros(len(x))

        def bose(v):
            arg = beta * (v - mu)
            return math.exp(-arg) if arg > 700 else 1.0 / math.expm1(arg)
        return _math(bose, x)
    # fermi
    if beta == 0.0:
        return np.full(len(x), 0.5)
    if math.isinf(beta):
        return np.where(x < mu, 1.0, np.where(x > mu, 0.0, 0.5))

    def fermi(v):
        arg = beta * (v - mu)
        return math.exp(-arg) if arg > 700 else 1.0 / (math.exp(arg) + 1.0)
    return _math(fermi, x)


def _form_factor(w: np.ndarray, spec: BathSpec) -> np.ndarray:
    """One-sided form factor J(w) of a 1-d array of w >= 0, each entry
    through ``math``."""
    gamma, cutoff, p = spec.gamma, spec.cutoff, spec.exponent
    if spec.form_factor == "flat":
        return np.where(w <= cutoff, gamma, 0.0)
    if spec.form_factor == "ohmic":
        return _math(lambda v: gamma * v * math.exp(-v / cutoff), w)
    return _math(lambda v: gamma * v**p * math.exp(-v / cutoff), w)


def _zero_frequency_limit(spec: BathSpec) -> float:
    """lim_{w -> 0+} of the emission side; equals the absorption limit."""
    beta = spec.beta
    zero = np.zeros(1)
    if spec.statistics == "fermi":
        return float(_form_factor(zero, spec)[0] * (1.0 - _occupation(zero, spec)[0]))
    # bose: J(w) (1 + n(w)) -> J(w) / (beta w) as w -> 0 when mu = 0
    if math.isinf(beta):
        return 0.0
    if spec.mu < 0.0:
        return float(_form_factor(zero, spec)[0] * (1.0 + _occupation(zero, spec)[0]))
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


def spectral_density(omega, spec: BathSpec):
    """Transition-rate table R(omega) of the bath, including the coupling
    scale, of a float or of every entry of a float array.  omega > 0 is
    the emission side, omega < 0 absorption.  The form factor J(|omega|)
    and the occupation n(|omega|), which hold every transcendental, are
    taken from ``math`` once per distinct |omega|, and the rate arithmetic
    runs on the array, so each entry has the bits of the float alone.  An
    array that fails raises the error of its first failing entry."""
    omega = np.asarray(omega, dtype=float)
    return _first_error(_spectral_density, omega.reshape(-1), spec).reshape(omega.shape)[()]


def _spectral_density(omega: np.ndarray, spec: BathSpec) -> np.ndarray:
    """:func:`spectral_density` of a 1-d array: J and n of each distinct
    |omega|, then both sides of every |omega| and one gather."""
    if spec.coupling == 0.0:
        return np.zeros(len(omega))
    # the distinct |omega|, 0 first where it occurs, and the index of each
    # entry's among them
    w = np.abs(omega).tolist()
    zero = int(0.0 in w)
    index = {0.0: 0} if zero else {}
    at = np.array([index.setdefault(x, len(index)) for x in w], dtype=int)
    u = np.array(list(index), dtype=float)
    if spec.beta == 0.0:
        # singular infinite-temperature bath: symmetric rate table
        return spec.coupling * _form_factor(u, spec)[at] * np.where(
            omega < 0, spec.absorption_scale, 1.0)
    n = _occupation(u[zero:], spec)
    scaled = spec.coupling * _form_factor(u[zero:], spec)
    # row 0 the absorption side, row 1 the emission side; both reach one
    # limit at omega = 0
    sides = np.empty((2, len(u)))
    sides[0, zero:] = scaled * n * spec.absorption_scale
    sides[1, zero:] = scaled * ((1.0 + n) if spec.statistics == "bose" else (1.0 - n))
    if zero:
        sides[:, 0] = spec.coupling * _zero_frequency_limit(spec)
    return sides.reshape(-1)[at + len(u) * (omega > 0)]


def verify_kms_ratio(spec: BathSpec, omegas) -> float:
    """Max residual of R(-w) = exp(-beta (w - mu)) R(w) over the samples.

    The chemical potential enters for particle-exchanging couplings,
    reducing to the plain Boltzmann factor at mu = 0; a bath with
    ``absorption_scale`` != 1 fails the relation by construction.
    """
    beta = spec.beta
    eps = 1e-300
    w = np.asarray(omegas, dtype=float).reshape(-1)
    r = spectral_density(np.stack([w, -w], axis=1), spec)
    r_plus, r_minus = r[:, 0], r[:, 1]
    if math.isinf(beta):
        arg = np.where(w > spec.mu, -math.inf, np.where(w < spec.mu, math.inf, 0.0))
    else:
        arg = -beta * (w - spec.mu)
    # where the Boltzmann factor overflows, test the inverted relation
    inverted = arg > 700
    factor = _math(math.exp, np.where(inverted, -arg, arg))
    resid = np.where(inverted,
                     np.abs(r_plus - factor * r_minus) / (np.abs(r_minus) + eps),
                     np.abs(r_minus - factor * r_plus) / (np.abs(r_plus) + eps))
    return float(np.max(resid[~np.isnan(resid)], initial=0.0))
