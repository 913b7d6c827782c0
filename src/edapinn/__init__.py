"""edapinn: multi-task physics-informed learning for electrodermal activity.

A from-scratch numpy toolkit that jointly regresses window-mean EDA and
classifies binary emotional state, constraining the regression head with
the first-order dynamics gamma*dEDA/dt + alpha0*EDA = beta.e through a
differentiable residual. Includes a dual-channel autodiff engine (values
plus time-tangents with an exact reverse pass), Adam training with
stratified k-fold, an ODE-exact synthetic benchmark with an RK4 oracle,
classical baselines, and CSV reporting.
"""

from .data import (
    ClusterSpec,
    Dataset,
    Normalizer,
    SynthSpec,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    ode_derivative,
    ode_solution,
    rk4_integrate,
    stratified_kfold,
    synth_generate,
    write_csv,
)
from .evaluation import (
    ClassificationMetrics,
    RegressionMetrics,
    classification_metrics,
    regression_metrics,
)
from .gradcheck import GradCheckReport, check_gradients
from .model import (
    ModelConfig,
    ModelParams,
    Predictions,
    forward,
    forward_batch,
    init_model,
)
from .objective import (
    LossBreakdown,
    PhysicsParams,
    bce,
    mse,
    physics_loss,
    physics_residual,
)
from .rng import Pcg32, derive_seed
from .trainer import (
    AdamState,
    EpochTrace,
    FoldReport,
    TrainRunConfig,
    adam_step,
    init_adam,
    run_fold,
    run_kfold,
    train_epoch,
)

__version__ = "0.1.0"
