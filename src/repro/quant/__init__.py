"""LPQ: genetic post-training quantization with LP encodings (Section 4)."""

from .baselines import per_layer_rmse, quantize_with_family
from .engine import IncrementalEvaluator
from .fitness import (
    FitnessConfig,
    FitnessEvaluator,
    compression_ratio,
    contrastive_objective,
    ir_fingerprints,
)
from .genetic import LPQConfig, LPQEngine, SearchHistory
from .objectives import OBJECTIVES, OutputObjectiveEvaluator
from .params import QuantSolution, clamp_lp_params, random_solution
from .pooling import kurtosis3, mean_pool_representation, pool_representation
from .ptq import LPQResult, lpq_quantize
from .quantizer import (
    LayerStats,
    WeightQuantCache,
    apply_quantization,
    bn_recalibrated,
    clear_quantization,
    collect_layer_stats,
    derive_activation_params,
    quantized,
)

__all__ = [
    "FitnessConfig",
    "IncrementalEvaluator",
    "FitnessEvaluator",
    "LPQConfig",
    "LPQEngine",
    "LPQResult",
    "LayerStats",
    "OBJECTIVES",
    "OutputObjectiveEvaluator",
    "QuantSolution",
    "SearchHistory",
    "WeightQuantCache",
    "apply_quantization",
    "bn_recalibrated",
    "clamp_lp_params",
    "clear_quantization",
    "collect_layer_stats",
    "compression_ratio",
    "contrastive_objective",
    "derive_activation_params",
    "ir_fingerprints",
    "kurtosis3",
    "lpq_quantize",
    "mean_pool_representation",
    "per_layer_rmse",
    "pool_representation",
    "quantize_with_family",
    "quantized",
    "random_solution",
]
