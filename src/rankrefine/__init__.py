"""Post-hoc refinement of regression predictions with pairwise-ranking evidence.

A trained regressor's point estimate and variance are fused with a second
estimate recovered from "is the query above this reference?" comparisons:
the comparisons are fit with a Bradley-Terry likelihood whose curvature
gives the rank estimate a variance, and the two estimates are combined by
inverse-variance weighting. The package also ships the simulated-ranker
experiment protocols, two baseline refiners, and a small bagged regression
forest that reports honest ensemble variances.
"""

from .baselines import feasible_bounds, projection_refine, rbr_refine
from .core import (
    ComparisonOutcome,
    ComparisonSet,
    Dataset,
    Estimate,
    beta,
    load_dataset_csv,
    load_references_csv,
    mae,
    pra,
    resplit,
    save_dataset_csv,
)
from .errors import (
    DataError,
    NumericError,
    RankRefineError,
    TransportError,
    ValidationError,
)
from .forest import (
    TrainedForest,
    fit,
    predict_with_variance_matrix,
)
from .fusion import (
    FusedEstimate,
    fuse,
    regularize_rank_variance,
    required_rank_variance,
)
from .rank import (
    RankEstimate,
    bt_nll,
    fisher_variance,
    solve_rank_estimate,
    solve_rank_estimates,
)
from .rankers import (
    LlmRankerConfig,
    OracleDraws,
    ReplayTransport,
    draw_oracle,
    generate_comparisons,
    interactive_rank,
    llm_rank_batch,
    load_comparisons_csv,
    save_comparisons_csv,
)
from .experiments import (
    SweepGrid,
    SweepRecord,
    make_synthetic_dataset,
    run_baseline_delta,
    run_noise_sweep,
    run_oracle_sweep,
    validate_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonOutcome",
    "ComparisonSet",
    "Dataset",
    "DataError",
    "Estimate",
    "FusedEstimate",
    "LlmRankerConfig",
    "NumericError",
    "OracleDraws",
    "RankEstimate",
    "RankRefineError",
    "ReplayTransport",
    "SweepGrid",
    "SweepRecord",
    "TrainedForest",
    "TransportError",
    "ValidationError",
    "beta",
    "bt_nll",
    "draw_oracle",
    "feasible_bounds",
    "fisher_variance",
    "fit",
    "fuse",
    "generate_comparisons",
    "interactive_rank",
    "llm_rank_batch",
    "load_comparisons_csv",
    "load_dataset_csv",
    "load_references_csv",
    "mae",
    "make_synthetic_dataset",
    "pra",
    "predict_with_variance_matrix",
    "projection_refine",
    "rbr_refine",
    "regularize_rank_variance",
    "required_rank_variance",
    "resplit",
    "run_baseline_delta",
    "run_noise_sweep",
    "run_oracle_sweep",
    "save_comparisons_csv",
    "save_dataset_csv",
    "solve_rank_estimate",
    "solve_rank_estimates",
    "validate_bound",
]
