"""Two-model neural uplift modeling boosted by bag-wise ATE regularization.

The package trains dense-network uplift models (TM, TARNet-style, DDR,
SDR) on randomized-experiment data, regularizes them with a multiple-
instance loss over bags of adjacent uplift predictions, and evaluates
with separate-ranking uplift curves and AUUC. A synthetic generator with
known ground-truth effects supports desk-scale verification.

Each name has one import path, its module; the package root re-exports
none of them:

* `upliftmil.data`: the datasets. `Dataset`, delimited text through
  `TableSchema`, `load_table` and `save_table`, stratified `split`,
  `minibatches`, the synthetic experiment (`SynthConfig`,
  `generate_synthetic`), `empirical_ate` and `fit_scaler`.
* `upliftmil.nncore`: the nets. Dense layers in one flat parameter
  vector (`init_network`), their buffers (`net_buffers`), `forward`,
  `backward`, `bce_loss` and Adam (`init_adam`, `adam_step`).
* `upliftmil.models`: the models and checkpoints. The four
  architectures of `ModelKind` behind `build`, `forward_full`,
  `predict` and `backprop_factual`, and `save_checkpoint` and
  `load_checkpoint`.
* `upliftmil.mil`: the bags. `cluster_bags` and the bag-regularized
  loss `combined_loss_and_grads`.
* `upliftmil.metrics`: the metrics. `uplift_curve`, `auuc`,
  `aggregate_runs` and `export_curve`.
* `upliftmil.trainer`: the training loop. `TrainConfig`, `train`,
  `evaluate` and `repeat_runs`.
* `upliftmil.errors`: the exception types every module raises, all
  under `UpliftError`, and the shared checks of settings and input
  arrays.
"""
