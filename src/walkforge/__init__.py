"""walkforge: inverse design and simulation of discrete-time walks on the line."""

from .lattice import (
    CoinSchedule,
    ComplexWaveField,
    CoverageError,
    FluxField,
    FormatError,
    InfeasibleTargetError,
    IntegrityError,
    JumpSchedule,
    ProbabilitySequence,
    ScalarField,
    SupportError,
    WalkError,
    WaveField,
    from_storage_index,
    probability_from_wavefield,
    to_storage_index,
)
from .feasibility import (
    FeasibilityReport,
    Violation,
    flux_from_rho,
    flux_from_wavefield,
    validate_sequence,
)
from .synthesis import (
    mimic_quantum_walk,
    realify_quantum_walk,
    reconstruct_wavefield,
    synthesize_coins,
    synthesize_jumps,
)
from .evolve import (
    HomogeneousCoinParams,
    McConfig,
    asymptotic_density,
    closed_form_wavefield,
    evolve_qw,
    evolve_qw_complex,
    evolve_rw_exact,
    lambda_kernel,
    simulate_rw,
    symmetry_conditions,
)
from .targets import (
    binomial_target,
    hadamard_target,
    load_target,
    target_from_spec,
    uniform_target,
)

__version__ = "0.1.0"
