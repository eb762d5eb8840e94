"""Hamiltonian twirling channels and their randomized simulation.

A twirl averages exp(-iHs) rho exp(iHs) over a probability law on s. In the
eigenbasis of H this is an entrywise (Schur) multiplier channel whose entries
are the law's characteristic function at the eigenvalue gaps; the Gaussian
law of variance t reproduces exp(tL) for the single-Hermitian-jump generator
L(rho) = H rho H - (H^2 rho + rho H^2) / 2. The sampling side draws the
random times instead, with a truncation window that grows only as sqrt(t).
"""

from .channels import (
    CPTPReport,
    CPTPWarning,
    SchurMultiplier,
    apply_choi,
    apply_schur,
    apply_superoperator,
    basis_state,
    check_choi,
    check_density_matrix,
    choi_of_schur,
    choi_of_superoperator,
    choi_of_unitary,
    choi_trace_distance,
    cptp_check,
    maximally_mixed,
    partial_trace_output,
    plus_state,
    random_density_matrix,
    superoperator_of_schur,
    superoperator_of_unitary,
)
from .config import (
    RunConfig,
    build_distribution,
    load_config_file,
    parse_config,
)
from .cvqpe import (
    QpeRun,
    estimate_lambda,
    outcome_sigma,
    resolve_spectrum,
    sample_k,
)
from .distributions import (
    CompoundPoisson,
    Dirac,
    DistributionSpec,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    TruncatedGaussian,
    char_minus,
    levy_psi,
    sample_law,
    scale_triplet,
)
from .errors import (
    CommutationError,
    ConfigError,
    DistributionError,
    HermiticityError,
    ParseError,
    ShapeError,
)
from .linalg import (
    HermitianOperator,
    SpectralDecomposition,
    eig_hermitian,
    kron,
    random_hermitian,
    trace_norm,
    unvec,
    vec,
)
from .matio import read_matrix, write_matrix
from .pauli import parse_pauli_sum
from .sampling import (
    CostLedger,
    ShotPlan,
    cutoff,
    derived_rng,
    empirical_channel,
    estimate_channel,
    estimate_compound_channel,
    mean_sampled_cost,
    sample_truncated_normal,
    scaling_table,
    tv_bound,
    tv_exact,
)
from .twirling import (
    commuting_generator_oracle,
    dissipator_matrix,
    exact_channel,
    gaussian_evolution,
    hs_quadrature_check,
    schur_multiplier_for,
    sequential_choi_commuting,
    vectorized_oracle,
)

__version__ = "0.1.0"
