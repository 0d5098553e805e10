"""Low-rank ridge regression between multiway arrays.

Predicts a response array of any order from a predictor array via a
contracted tensor product with a CP-factorized, ridge-penalized
coefficient array.  Fitting is by penalized alternating least squares,
uncertainty comes from a Gibbs sampler over the matching posterior, and a
simulation harness evaluates estimation procedures over seeded factorial
designs.
"""

from .coefficients import (
    CpCoefficients,
    DegenerateComponentError,
    NormalizedForm,
    normalize,
)
from .fileio import (
    read_draws,
    read_model,
    read_tensor,
    write_draws,
    write_model,
    write_tensor,
)
from .fitting import (
    FitConfig,
    FitResult,
    SingularSystemError,
    center,
    fit,
    objective,
    predict,
    update_outcome_factor,
    update_predictor_factor,
)
from .posterior import (
    DegeneratePosteriorError,
    FactorConditional,
    GibbsConfig,
    PosteriorDraws,
    conditional_factor_params,
    credible_intervals,
    dic,
    draw_sigma2,
    gibbs,
    posterior_predictive,
)
from .simulation import (
    ExperimentCell,
    GridCell,
    SimSpec,
    correlated_field,
    expand_grid,
    rpe,
    run_cell,
    run_grid,
    simulate,
    write_results_csv,
)
from .tensors import (
    DenseTensor,
    contract,
    cp_compose,
    khatri_rao,
    outer,
    unfold,
    vec,
)

__version__ = "0.1.0"

__all__ = [
    "DenseTensor",
    "vec",
    "unfold",
    "outer",
    "cp_compose",
    "khatri_rao",
    "contract",
    "CpCoefficients",
    "NormalizedForm",
    "DegenerateComponentError",
    "normalize",
    "FitConfig",
    "FitResult",
    "SingularSystemError",
    "center",
    "objective",
    "update_predictor_factor",
    "update_outcome_factor",
    "fit",
    "predict",
    "GibbsConfig",
    "PosteriorDraws",
    "FactorConditional",
    "DegeneratePosteriorError",
    "draw_sigma2",
    "conditional_factor_params",
    "gibbs",
    "posterior_predictive",
    "credible_intervals",
    "dic",
    "SimSpec",
    "ExperimentCell",
    "GridCell",
    "simulate",
    "correlated_field",
    "rpe",
    "run_cell",
    "run_grid",
    "expand_grid",
    "write_results_csv",
    "read_tensor",
    "write_tensor",
    "read_model",
    "write_model",
    "read_draws",
    "write_draws",
    "__version__",
]
