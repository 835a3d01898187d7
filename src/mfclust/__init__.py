"""Multi-sensor functional data clustering with automatic sensor selection.

The pipeline: fit curves to a shared B-spline basis, reduce each sensor to
a few principal component scores, cluster the stacked scores with a
penalized Gaussian mixture (individual, variable, or group penalty with
adaptive weights), and pick the cluster count and penalty strength by an
adjusted BIC. A simulation benchmark reproduces the accompanying factor
sweeps.
"""

__version__ = "0.1.0"

from mfclust.basis import BasisSpec, build_basis, fit_coefficients, gram_matrix
from mfclust.em import (
    FitResult,
    MixtureParams,
    NumericalError,
    PenaltySpec,
    e_step,
    initialize,
    penalized_nll,
    run_em,
)
from mfclust.fpca import (
    CoefficientMatrix,
    FunctionalDataSet,
    SensorFpcaModel,
    fit_fpca,
    select_num_components,
    standardize,
    transform,
)
from mfclust.select import SearchGrid, SelectionReport, adjusted_bic, model_search
from mfclust.simbench import (
    BenchmarkRow,
    SimulationDesign,
    ari,
    default_design,
    generate_dataset,
    mae_m,
    removal_counts,
    run_scenario,
)

__all__ = [
    "BasisSpec",
    "BenchmarkRow",
    "CoefficientMatrix",
    "FitResult",
    "FunctionalDataSet",
    "MixtureParams",
    "NumericalError",
    "PenaltySpec",
    "SearchGrid",
    "SelectionReport",
    "SensorFpcaModel",
    "SimulationDesign",
    "adjusted_bic",
    "ari",
    "build_basis",
    "default_design",
    "e_step",
    "fit_coefficients",
    "fit_fpca",
    "generate_dataset",
    "gram_matrix",
    "initialize",
    "mae_m",
    "model_search",
    "penalized_nll",
    "removal_counts",
    "run_em",
    "run_scenario",
    "select_num_components",
    "standardize",
    "transform",
]
