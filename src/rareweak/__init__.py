"""rareweak: detection-boundary theory, higher-criticism detectors, and
permutation benchmarks for panels of rare, weak signals.

The package splits into five layers, lowest first:

* ``core_stats``  marginal scores per column and their p-values;
* ``boundary``    rare/weak calibration and the detectability boundary;
* ``detectors``   set-level statistics over scores or p-values;
* ``simgen``      correlated genotype panels and trait models;
* ``bench``       permutation-calibrated power / FDR / ranking studies;

plus ``cli`` for the ``rareweak`` command.  The names below are the stable
public surface.
"""

from ._rng import RNG_ALGORITHM
from .bench import (
    FdrCurve,
    GeneRanking,
    METHOD_NAMES,
    Scenario,
    ScenarioResult,
    empirical_power,
    fdr_curve,
    fdr_table_csv,
    methods_for,
    permutation_cutoff,
    power_table_csv,
    rank_gene_sets,
    ranking_csv,
)
from .boundary import (
    BoundaryCurve,
    beta_from_r,
    boundary_curve,
    detection_boundary,
    heritability,
    minp_boundary,
    signal_count,
)
from .core_stats import (
    GenotypeMatrix,
    MarginalStats,
    Phenotype,
    case_control_zscores,
    marginal_correlations,
    marginal_stats,
    pvalues_two_sided,
    tstats_from_correlation,
    zscores_from_correlation,
    zscores_known_sigma,
)
from .detectors import (
    HcResult,
    check_row_sparsity,
    cholesky_lower,
    decorrelation_test,
    empirical_correlation,
    hc_discretized,
    hc_grid_start,
    hc_threshold_scan,
    higher_criticism,
    linear_combination_test,
    min_pvalue,
    quadratic_test,
)
from .errors import (
    AllColumnsDroppedError,
    AlphaOutOfRangeError,
    BadKError,
    BadRangeError,
    BadSampleSizeError,
    ConfigError,
    ConstantColumnError,
    DegenerateCorrelationError,
    DegenerateGridPointError,
    DimensionMismatchError,
    EmptyGeneError,
    EmptyGridError,
    EmptyGroupError,
    EmptyInputError,
    LatentNotPDError,
    MalformedCsvError,
    MonomorphicColumnError,
    NonFiniteInputError,
    NonPositiveQuadFormError,
    NonPositiveSigmaError,
    NotPositiveDefiniteError,
    NotSquareError,
    PValueOutOfRangeError,
    QuotaStallError,
    RareweakError,
    TooFewPermutationsError,
    UnattainableError,
    UnknownSnpIdError,
)
from .simgen import (
    CoefficientScheme,
    LdSpec,
    SignalConfig,
    TraitModel,
    build_ld,
    draw_signal_config,
    simulate_case_control,
    simulate_genotypes,
    simulate_quantitative,
    six_toeplitz_designs,
    solve_latent_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "RNG_ALGORITHM",
    "__version__",
    # errors
    "RareweakError", "NonFiniteInputError", "ConstantColumnError",
    "MonomorphicColumnError", "EmptyGroupError", "BadSampleSizeError",
    "DegenerateCorrelationError", "NonPositiveSigmaError",
    "DimensionMismatchError", "EmptyInputError", "PValueOutOfRangeError",
    "EmptyGridError", "DegenerateGridPointError", "BadRangeError",
    "AlphaOutOfRangeError", "NonPositiveQuadFormError",
    "NotPositiveDefiniteError", "NotSquareError", "BadKError",
    "UnattainableError", "LatentNotPDError", "QuotaStallError",
    "TooFewPermutationsError", "EmptyGeneError", "MalformedCsvError",
    "AllColumnsDroppedError", "UnknownSnpIdError", "ConfigError",
    # core_stats
    "GenotypeMatrix", "Phenotype", "MarginalStats",
    "marginal_correlations", "marginal_stats", "zscores_known_sigma",
    "zscores_from_correlation", "tstats_from_correlation",
    "case_control_zscores", "pvalues_two_sided",
    # detectors
    "HcResult", "higher_criticism",
    "hc_threshold_scan", "hc_discretized", "hc_grid_start", "min_pvalue",
    "empirical_correlation", "linear_combination_test",
    "quadratic_test", "decorrelation_test", "cholesky_lower", "check_row_sparsity",
    # boundary
    "BoundaryCurve", "detection_boundary", "minp_boundary", "beta_from_r",
    "heritability", "signal_count", "boundary_curve",
    # simgen
    "LdSpec", "build_ld", "six_toeplitz_designs", "solve_latent_correlation",
    "simulate_genotypes", "CoefficientScheme", "SignalConfig",
    "draw_signal_config", "TraitModel", "simulate_quantitative",
    "simulate_case_control",
    # bench
    "METHOD_NAMES", "methods_for", "Scenario", "ScenarioResult", "FdrCurve",
    "GeneRanking", "permutation_cutoff", "empirical_power", "fdr_curve",
    "rank_gene_sets", "power_table_csv", "fdr_table_csv", "ranking_csv",
]
