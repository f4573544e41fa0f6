"""Deterministic integer entropy-model toolkit.

16-bit post-training quantization of entropy subnetworks (hyperdecoder,
causal context model, gather), exact integer inference with static 32-bit
overflow guarantees, fixed-point Gaussian-mixture CDF tables, a carry-less
range coder, and a cross-device interop harness showing that float priors
can break entropy decoding while integer priors round-trip bit-exactly.
"""

from .gmm import (
    CDF_TOTAL,
    WEIGHT_TOTAL,
    CdfTable,
    GmmParams,
    apportion,
    build_cdf_table,
    sigma_min_for,
)
from .harness import (
    BackendVariant,
    CalibrationReport,
    EntropyStackF,
    FloatPriors,
    InteropReport,
    LayerCfg,
    StackPair,
    boundary_failure_demo,
    calibrate_shifts,
    discretize_priors,
    roundtrip_experiment,
)
from .intops import (
    SUBNETS,
    EntropyStack,
    linear_softmax_field,
    run_entropy_stack,
)
from .quantize import (
    ACCUM_BITS,
    K_MAX,
    LayerQuantSpec,
    QConvLayer,
    WeightRangeError,
    accumulator_bound,
    adjust_shift_for_bias,
    ceil_log2,
    derive_weight_shift,
    quantize_layer,
    quantize_value,
    round_half_away,
    shifted_bound,
)
from .rc import Bitstream, RangeDecoder, StreamFormatError, rc_decode, rc_encode
from .tensors import ConvLayerF, ShapeError

__version__ = "0.1.0"
