"""Sparse orthonormal approximation of longitudinal trajectories.

Estimates orthonormal empirical components and per-subject scores directly
from sparse, irregular, noisy observations by alternating constrained least
squares, then reconstructs each subject's underlying curve — no mean or
covariance function estimation and no covariance-matrix inversion.
"""

from .basis import (
    BasisSystem,
    default_basis_size,
    eval_basis_matrix,
    make_bspline_basis,
    quantile_interior_knots,
)
from .core import (
    DataValidationError,
    FecModel,
    FitReport,
    LongitudinalDataset,
    Subject,
    dataset_from_columns,
    load_model,
    read_long_csv,
    save_model,
    validate_dataset,
    write_long_csv,
)
from .oracle import (
    DenseCurveSet,
    compare_to_soap,
    grid_eigenfunctions,
    sign_aligned_imse,
)
from .predict import (
    MspeReport,
    TrajectoryEstimate,
    holdout_last_mspe_model,
    predict_trajectories,
    predict_trajectory,
    project_scores,
)
from .selection import (
    AicResult,
    CvResult,
    aic,
    aic_values,
    loco_cv_gamma,
    select_component_count,
    select_gammas_sequential,
    sigma2_hat,
)
from .sim import (
    SimulationConfig,
    TrueCurves,
    gen_scores,
    gen_sparse_dataset,
    impe,
    run_replication_study,
)
from .solver import (
    PenalizedStepResult,
    SingularStepError,
    fit_soap,
    objective,
    psi_step_penalized,
    score_step,
)

__version__ = "0.1.0"
