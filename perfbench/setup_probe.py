"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config.json>

Set-up is what `sparselab run` does before its first grid cell: import
the package, validate the config, synthesize the dataset and build the
first model. Prints the seconds it took as the only line of output.
"""

import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def main(src, config_path):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from sparselab import experiments, layers
    from workloads import build_dataset
    cfg = experiments.load_config(config_path)
    build_dataset(cfg.raw)
    layers.build_model(cfg.raw["model"], seed=cfg.seeds[0])
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(*sys.argv[1:])
