"""The benchmark's workloads: `sparselab run` configs built from a seed.

Each workload is one experiment grid run through
``experiments.run_experiment``, the function behind ``sparselab run``.
The workload seed derives the dataset seed and the train seed; the train
seed is also the model-init and mask seed, because ``run_experiment``
uses one seed per grid cell for all three.

Why these three: together they cover every hot layer, and each one
bypasses a layer another one stresses, so an optimisation of one layer
has a workload where it should show and one where it should not.

- ``mlp-grid``: small dense ops and per-op Python overhead (matmul,
  pswish, sgd_step), synflow's ranking passes and a short LRsI search,
  plus checkpoint/CSV writes for four cells. No conv2d, no Hessian probe.
- ``resnet-toolkit``: LRsI's first-step objective on a conv net, i.e.
  train-mode conv2d, batchnorm_train and pswish, plus parameter writes.
  No Hessian probe, no synflow.
- ``resnet-probe``: the top-Hessian-eigenvalue probe with criterion 9's
  settings (power_iters 25, tol 1e-3, probe batch 128): eval-mode conv2d
  inside finite-difference HVPs, reads beside the other workloads'
  writes. No LRsI, no pswish.

resnet-probe also keeps criterion 9's seeds: dataset seed 0 and train
seed ``seed % 5``. On the relu network the power iteration did not
converge on any input tried, but on some inputs two noisy eigenvalue
estimates agree by chance and it stops after as few as 29 of its 52
HVPs, so the work of a run, and its time, would depend on the seed by up
to 45%. On criterion 9's five seeds it runs all 52. ``converged_ratio``
in the trace still shows the non-convergence.
"""

from __future__ import annotations

import numpy as np

RESNET_MODEL = {"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2}
MLP_MODEL = {"preset": "mlp", "in_shape": [2], "classes": 2}


def derive_seeds(seed):
    """(dataset_seed, train_seed) from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0] % 2**31), int(state[1] % 2**31)


def _teacher(dataset_seed):
    return {"name": "teacher", "n": 256, "classes": 2, "seed": dataset_seed,
            "input_shape": [1, 8, 8]}


def mlp_grid(dataset_seed, train_seed):
    return {
        "model": MLP_MODEL,
        "dataset": {"name": "spirals", "n": 1024, "classes": 2, "noise": 0.05,
                    "seed": dataset_seed},
        "mask": {"algo": ["random", "synflow"], "sparsity": 0.95,
                 "synflow_iterations": 100},
        "train": {"epochs": 4, "batch": 64, "lr0": 0.1, "milestones": [2, 3],
                  "ls_alpha": 0.1, "seed": train_seed},
        "lrsi": {"iters": 6},
        "tweaks": ["baseline", "toolkit"],
    }


def resnet_toolkit(dataset_seed, train_seed):
    return {
        "model": RESNET_MODEL,
        "dataset": _teacher(dataset_seed),
        "mask": {"algo": "random", "sparsity": 0.9},
        "train": {"epochs": 2, "batch": 64, "lr0": 0.05, "milestones": [1],
                  "ls_alpha": 0.1, "seed": train_seed},
        "lrsi": {"iters": 1},
        "tweaks": ["baseline", "toolkit"],
    }


def resnet_probe(dataset_seed, train_seed):
    return {
        "model": RESNET_MODEL,
        "dataset": _teacher(dataset_seed),
        "mask": {"algo": "random", "sparsity": 0.9},
        "train": {"epochs": 2, "batch": 64, "lr0": 0.05, "milestones": [1],
                  "seed": train_seed},
        "probes": {"enabled": True, "every": 2, "eig_count": 1, "power_iters": 25,
                   "tol": 1e-3, "probe_batch": 128},
        "tweaks": ["baseline"],
    }


WORKLOADS = {
    "mlp-grid": mlp_grid,
    "resnet-toolkit": resnet_toolkit,
    "resnet-probe": resnet_probe,
}


def make_config(workload, seed):
    """The workload's config (without ``out_dir``) and its derived seeds."""
    if workload == "resnet-probe":
        dataset_seed, train_seed = 0, seed % 5
    else:
        dataset_seed, train_seed = derive_seeds(seed)
    return WORKLOADS[workload](dataset_seed, train_seed), dataset_seed, train_seed


def build_dataset(config):
    """The dataset `sparselab run` synthesizes for ``config``."""
    from sparselab import datasets
    d = config["dataset"]
    return datasets.make_synthetic(d["name"], d["n"], d["classes"], noise=d.get("noise", 0.1),
                                   seed=d["seed"], input_shape=d.get("input_shape"))
