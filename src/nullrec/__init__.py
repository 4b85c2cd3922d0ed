"""Kernel regression with null-recurrent regressors: exact regeneration
algebra on finite chains, split-chain simulation, the local estimator, and
replicated normality experiments."""

__version__ = "0.1.0"

from .algebra import (
    BlockMomentRequest,
    FiniteMarkovModel,
    block_mean_variance,
    block_moment,
    compound_block_moment,
    embedded_transition,
    generalized_autocov,
    sigma2_from_series,
    weighted_block_moment,
)
from .estimator import (
    EPANECHNIKOV,
    EstimateReport,
    Kernel,
    cv_constant,
    gaussian_truncated,
    local_bandwidth,
    modal_value,
    nw_estimate,
)
from .montecarlo import (
    CltExperimentResult,
    CltProtocol,
    derive_seed,
    ks_normal,
    run_clt,
    run_protocols,
    trend_report,
)
from .processes import (
    GeneratedPath,
    ProcessSpec,
    Transfer,
    empirical_corr_decay,
    generate,
    linear,
    stream,
    theoretical_cross_moment,
)
from .splitting import (
    AtomSpecContinuous,
    BlockDecomposition,
    SplitTrajectory,
    block_sums,
    gaussian_rw_atom,
    occupation_count,
    regeneration_stats,
    simulate_split,
)
