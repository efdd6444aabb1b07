"""skipdet: motion-gated video object detection with evolutionary network
compression, self-contained at desk scale.

A per-frame gate pairs the current frame with the last deeply-inferred
reference frame, whose half of the 1x1 gate convolution is made once per
reference, into a motion probability map, and skips the detector whenever
too little has changed, reusing the reference's boxes instead. A separate
evolution loop compresses trained detectors generation by generation via
stochastic synapse sampling and retraining.
"""

from .detector import (AnchorPrior, ClassProbabilityMap, DetectionBox, decode,
                       evaluate_mean_best_iou, iou, kmeans_anchors,
                       map_from_output, nms)
from .evolve import (EnvironmentalFactor, Lineage, SynapticGenome,
                     encode_genome, evolve_generations, synthesize_offspring)
from .motion import Frame, GatingPolicy, decide, motion_map, reference_half, stack_frames
from .netdef import (FnetFormatError, LayerSpec, LayerWeights, NetworkDescriptor,
                     WeightStore, count_flops, count_params, effective_flops,
                     load_network, save_network)
from .network import TrainConfig, TrainingDivergence, forward, init_weights, train_sgd
from .pipeline import PipelineState, RunReport, process_frame, run
from .tensor import ShapeError, Tensor, conv2d, maxpool2, pointwise, tensor

__version__ = "0.1.0"

__all__ = [
    "AnchorPrior", "ClassProbabilityMap", "DetectionBox", "EnvironmentalFactor",
    "FnetFormatError", "Frame", "GatingPolicy", "Lineage", "LayerSpec",
    "LayerWeights", "NetworkDescriptor", "PipelineState",
    "RunReport", "ShapeError", "SynapticGenome", "Tensor", "TrainConfig",
    "TrainingDivergence", "WeightStore", "conv2d", "count_flops", "count_params",
    "decide", "decode", "effective_flops", "encode_genome",
    "evaluate_mean_best_iou", "evolve_generations", "forward", "init_weights",
    "iou", "kmeans_anchors", "load_network", "map_from_output", "maxpool2",
    "motion_map", "nms", "pointwise", "process_frame", "reference_half", "run",
    "save_network", "stack_frames", "synthesize_offspring", "tensor", "train_sgd",
]
