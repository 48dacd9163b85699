"""rotprox: rotation-equivariant convolutional networks as proximal operators,
with an audit harness that checks measured equivariance against an analytic bound."""

from .audit import (
    REGULARIZER_KINDS,
    SWEEP_GROUP_ORDERS,
    BoundInputs,
    EquivarianceReport,
    LayerBounds,
    RegularizerSpec,
    bound_inputs_for,
    emit_regularizer_report,
    emit_report,
    measure_equivariance,
    order_sweep,
    regularizer_rotation_table,
    regularizer_value,
    relative_spread,
    theorem1_bound,
)
from .checkpoint import ChecksumError
from .checkpoint import load as load_checkpoint
from .checkpoint import save as save_checkpoint
from .filters import (
    FourierBasis,
    SmoothnessBounds,
    basis_stack,
    bounds_from_coefficients,
    image_bounds,
)
from .grids import (
    DegenerateReferenceError,
    NonFiniteError,
    PlanarImage,
    relative_difference,
    rotate_image,
)
from .layers import (
    Bias,
    GroupConv,
    Lift,
    NetworkSpec,
    OrientationPool,
    ReLU,
    ResidualAdd,
    forward,
    init_network,
    make_audit_net,
    make_denoiser_net,
    make_sweep_net,
    parameters,
    weight_banks,
)
from .prox import (
    NeuralProx,
    SoftThreshold,
    TVProx,
    TVResult,
    neural_prox,
    soft_threshold,
    tv_prox,
)
from .solver import (
    BlurDownsample,
    Identity,
    SolverDivergence,
    UnfoldingConfig,
    degrade,
    estimate_lipschitz,
    gaussian_kernel,
    ista_solve,
    ista_step,
    psnr,
)
from .synthetic import (
    ring_stack,
    sample_field,
    synthetic_field,
    synthetic_image,
    synthetic_stack,
)
from .tensorio import read_eqt1, read_pgm, write_eqt1, write_pgm
from .training import (
    SGD,
    Adam,
    Tape,
    TrainingDivergence,
    backward,
    chain_grads,
    forward_with_tape,
    mse_loss,
    train_denoiser,
)

__version__ = "0.1.0"
