"""qthermo: Markovian open-system dynamics with built-in law certification.

The package builds weak-coupling (secular) GKLS generators from
Hamiltonians and bath spectral models, simulates reciprocating and
continuous quantum heat machines, and audits every run against the laws
of thermodynamics.
"""

from .operators import (
    DensityMatrix,
    Operator,
    Superoperator,
    cp_check,
    eig_hermitian,
    expect,
    matexp,
    trace_distance,
)
from .baths import BathSpec, occupation, spectral_density, verify_kms_ratio
from .states import (
    CorrelationSeries,
    diagonal_vs_microcanonical,
    ergotropy,
    gibbs_state,
    heisenberg_chain,
    is_completely_passive,
    is_passive,
    kms_check,
    relative_entropy,
    shannon_entropy_in_basis,
    two_point_correlation,
    von_neumann_entropy,
)
from .lindblad import (
    BohrResolutionError,
    GKLSGenerator,
    JumpChannel,
    ThermoLedger,
    adiabatic_propagate,
    build_davies,
    davies_audit,
    entropy_production_rate,
    heat_currents,
    stationary_state,
    trajectory,
)

__version__ = "0.1.0"
