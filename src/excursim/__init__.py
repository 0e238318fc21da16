"""excursim: rare-event estimation for suprema of Gaussian random fields.

Estimates tail probabilities P(sup_T f > b) and excursion-set integral
expectations with level-independent cost, by tilting the field law toward the
excursion event and discretizing adaptively around the tilted location.
"""

from .design import (
    DesignDensity,
    DesignDraw,
    alpha_hat,
    choose_m,
    cluster_scale,
    mes_hat,
    sample_design_points,
)
from .engine import (
    EstimateReport,
    IntegrandSpec,
    aggregate,
    estimate_conditional,
    estimate_pickands,
    estimate_tail,
    estimate_tail_and_excursion,
    pickands_estimate,
)
from .errors import (
    ConfigurationError,
    ExcursimError,
    InsufficientReplicatesError,
    IntegrandBoundsError,
    InvalidLevelError,
    ModelEvaluationError,
    NoHitError,
    QuadratureError,
    ReplicateFailureError,
    SingularModelError,
)
from .field import (
    BoxDomain,
    CosineProcess,
    Exponential,
    FieldModel,
    LinearMean,
    PowerExponential,
    RegularityParams,
    SquaredExponential,
    conditional_moments,
    cov_matrix,
    factor_psd,
    gaussian_tail,
    log_gaussian_tail,
    log_marginal_tail,
    marginal_tail,
    sample_conditional,
    sample_joint,
)
from .measure import (
    MeasureContext,
    gamma_level,
    log_normalizing_integral,
    measure_context,
    sample_tau,
    sample_truncated_tail,
)
from .oracles import (
    cosine_grid_tail,
    cosine_sup_batch,
    cosine_truth,
    crude_grid_mc,
    expected_excursion_measure,
    log_rice_tail,
)
from .presets import PRESETS, preset_model

__version__ = "0.1.0"
