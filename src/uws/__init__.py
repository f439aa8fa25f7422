"""uws: universal weight-subspace extraction for model ensembles.

Extracts shared low-rank subspaces from stacks of per-layer weight
matrices via truncated zero-centered higher-order SVD, projects models
into the subspace, reconstructs and merges them there, fits new tasks by
learning coefficients only, and ships a small lab for checking the
two-level convergence behaviour of empirical second-moment operators.
"""

from types import ModuleType as _Module

from .errors import ContainerError, InvalidArgumentError, NumericalFailureError, UwsError
from .tensor import frobenius_norm
from .spectral import (
    DEFAULT_POLICY,
    RankPolicy,
    explained_variance,
    operator_norm,
    select_rank,
)
from .hosvd import (
    SliceCoefficients,
    SubspaceModel,
    project_slice,
    reconstruct_slice,
)
from .ensemble import (
    CoefficientSet,
    ExtractionConfig,
    MEMORY_PRESETS,
    ModelWeights,
    ScreeReport,
    UniversalSubspace,
    adapt_coefficients,
    coefficient_parameter_count,
    extract_universal,
    load_coefficients,
    load_subspace,
    load_weights,
    memory_savings,
    merge_models,
    merge_weights,
    project_model,
    reconstruct_model,
    save_coefficients,
    save_subspace,
    save_weights,
    scree_report,
    stack_layer,
)
from .theory import (
    BoundParameters,
    ConvergenceReport,
    SyntheticEnsembleConfig,
    convergence_study,
    davis_kahan_check,
    davis_kahan_study,
    sample_ensemble,
    theorem1_bounds,
    within_task_term,
)

__version__ = "0.1.0"

# every name imported above (not the submodules the imports bind), and the version
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _Module)] + ["__version__"]
