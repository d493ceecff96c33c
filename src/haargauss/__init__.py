"""Gaussian approximation of Haar-orthogonal matrix corners: exact moment
formulas, log-space density evaluation, Monte Carlo distance estimators, the
Gram-Schmidt coupling, and the associated limit-theorem experiments."""

from .density import (
    NEG_INFINITY,
    KnParts,
    PrimedLogParts,
    UnsupportedRegimeError,
    log_kn_asymptotic,
    log_kn_exact,
    log_kn_prime_and_ln_prime,
    log_likelihood_ratio,
    log_ln,
    log_wishart_constant,
)
from .distances import (
    DistanceKind,
    EstimateWithError,
    NoDrawInSupportError,
    estimate_hellinger,
    estimate_kl,
    estimate_tv,
    estimate_tv_from_haar,
    hellinger_sq_limit,
    kl_limit,
    tv_limit_lower_bound,
)
from .limits import (
    FIGURE_GRID,
    CltSample,
    EigenConcentrationResult,
    HsExperimentResult,
    HsSample,
    clt_figure_grid,
    clt_w_statistic,
    clt_w_statistic_p1,
    eigen_concentration,
    half_normal_cdf,
    hs_sample,
    run_hs_experiment,
)
from .moments import (
    ChiSquareCentralStats,
    MonomialPattern,
    SigmaTraceSums,
    WishartTraceStats,
    bilinear_fourth_moment,
    chi_square_central_stats,
    chi_square_moment,
    dirichlet_moment,
    double_factorial,
    entry_monomial_moment,
    sigma_trace_sums,
    trace_power_moment,
    wishart_trace_stats,
)
from .numerics import (
    RngStream,
    cholesky_logdet,
    ks_statistic,
    log_gamma,
    normal_cdf,
)
from .parallel import replicate_map, thread_count
from .sampling import (
    CoupledPair,
    Dims,
    GramSchmidtResult,
    dump_matrix_csv,
    gram_schmidt_coupling,
    load_matrix_csv,
    sample_coupled_pair,
    sample_gaussian_matrix,
    sample_haar_submatrix,
)

__version__ = "0.1.0"
