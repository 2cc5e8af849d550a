"""adaptnn: distance metric learning via a smoothed K-NN empirical risk.

Learns a Mahalanobis metric by minimizing a continuous surrogate of the K-NN
training error. Per-sample similar/dissimilar distance lists are collapsed by
a log-sum-exp soft aggregate whose single parameter sweeps from the minimum
through the mean to the maximum, a loss penalizes samples whose soft similar
distance exceeds the soft dissimilar one, and projected gradient descent keeps
the metric on the PSD cone. A top-K-average K-NN classifier and a benchmark
harness (stratified splits, CV grid selection, report emission) round out the
package.
"""

from .core import (Dataset, HyperParams, MetricMatrix, NeighborSets,
                   TrainReport, validate)
from .softagg import soft_agg, solve_gamma_star, topk_avg_largest, topk_avg_smallest
from .metric import pairwise_sq, psd_project
from .objective import (HingeLoss, IdentityLoss, SoftplusLoss, ann_gradient,
                        ann_objective, nca_objective, pnca_objective)
from .optimizer import DivergenceError, default_init, train
from .classifier import (FitKnn, accuracy, accuracy_by_k, decision_score, predict,
                         predict_batch)
from .data import (Preprocessor, apply_pca, apply_zscore, build_neighbor_sets,
                   fit_pca, fit_zscore, load, save)
from .bench import (AccuracyRecord, ExperimentConfig, emit_report, load_config,
                    load_registry, parse_report, run_experiment, smooth_over_k,
                    stratified_split)

__version__ = "0.1.0"
