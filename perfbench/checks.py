"""Output checks on one `sparselab run` output directory.

A grid cell fails when it diverged, is missing its artifacts, wrote a
non-finite CSV value, its CSV digest differs from the first repeat's, or
(first repeat only) its final checkpoint fails the gradient oracle. A bad
grid summary or a non-zero exit code with no failed cell fails every cell.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

ORACLE_BATCH = 32
ORACLE_COORDS = 8
ORACLE_H = 1e-5
ORACLE_RTOL = 1e-5
ORACLE_ATOL = 1e-7


def cell_dir(out_dir, result):
    """Where `sparselab run` writes a grid cell's artifacts."""
    return os.path.join(out_dir, f"{result.algo}_s{format(result.sparsity, 'g')}_{result.tweaks}",
                        f"seed{result.seed}")


def _csv_files(directory, recursive):
    if not recursive:
        return sorted(f for f in os.listdir(directory) if f.endswith(".csv"))
    found = []
    for root, _, files in os.walk(directory):
        found += [os.path.relpath(os.path.join(root, f), directory)
                  for f in files if f.endswith(".csv")]
    return sorted(found)


def csv_digest(directory, recursive=True):
    """sha256 over the relative path and bytes of every CSV file."""
    h = hashlib.sha256()
    for rel in _csv_files(directory, recursive):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(directory, rel), "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def nonfinite_values(directory, recursive=True):
    """Number of CSV cells that parse as a non-finite float.

    The one exception is ``beta = inf`` in metrics.csv: it is how an epoch
    with exact relu neurons is recorded (pswish with beta -> inf)."""
    bad = 0
    for rel in _csv_files(directory, recursive):
        with open(os.path.join(directory, rel), newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for row in rows:
            for column, value in zip(header, row):
                if column == "beta" and value == "inf":
                    continue
                try:
                    bad += not math.isfinite(float(value))
                except ValueError:     # empty cell or a text column
                    pass
    return bad


def gradient_oracle(splb_path, model_spec, seed, dataset):
    """Reload a final checkpoint and compare its autodiff gradient with
    central differences on a few fixed free coordinates, under pswish so
    the loss is smooth. Returns (ok, worst relative error)."""
    from sparselab import checkpoint, diagnostics, layers
    model = layers.build_model(model_spec, seed=seed)
    checkpoint.load_into_model(splb_path, model)
    x = dataset.x_test[:ORACLE_BATCH]
    onehot = np.eye(model.n_classes)[dataset.y_test[:ORACLE_BATCH]]
    loss_fn, grad_fn, theta0 = diagnostics.probe_functions(model, x, onehot, activation="pswish")
    grad = grad_fn(theta0)
    ok, worst = True, 0.0
    for i in np.linspace(0, theta0.size - 1, ORACLE_COORDS).astype(int):
        step = np.zeros_like(theta0)
        step[i] = ORACLE_H
        fd = (loss_fn(theta0 + step) - loss_fn(theta0 - step)) / (2 * ORACLE_H)
        err = abs(grad[i] - fd)
        ok = ok and bool(err <= ORACLE_ATOL + ORACLE_RTOL * abs(fd))
        worst = max(worst, err / max(abs(fd), ORACLE_ATOL))
    return ok, worst


class RunChecker:
    """Per-cell verdicts over the repeats of one workload."""

    def __init__(self, model_spec, dataset):
        self.model_spec = model_spec
        self.dataset = dataset
        self.reference = None        # first repeat: (summary digest, {cell: digest})
        self.counts = dict.fromkeys(
            ("attempted", "failed", "diverged", "missing_artifacts", "nonfinite_csv_values",
             "digest_mismatches", "oracle_checked", "oracle_failed"), 0)
        self.oracle_worst_rel_err = 0.0

    def check(self, out_dir, exit_code, results):
        """Check one repeat's output; returns its whole-run CSV digest."""
        c = self.counts
        first = self.reference is None
        summary = csv_digest(out_dir, recursive=False)
        digests = {}
        failed = 0
        for r in results:
            path = cell_dir(out_dir, r)
            rel = os.path.relpath(path, out_dir)
            bad = r.diverged
            c["diverged"] += r.diverged
            if not all(os.path.isfile(os.path.join(path, f)) for f in ("metrics.csv", "final.splb")):
                c["missing_artifacts"] += 1
                failed += 1
                continue
            nonfinite = nonfinite_values(path)
            c["nonfinite_csv_values"] += nonfinite
            digests[rel] = csv_digest(path)
            if first:
                ok, worst = gradient_oracle(os.path.join(path, "final.splb"),
                                            self.model_spec, r.seed, self.dataset)
                c["oracle_checked"] += 1
                c["oracle_failed"] += not ok
                self.oracle_worst_rel_err = max(self.oracle_worst_rel_err, worst)
                bad = bad or not ok
            elif digests[rel] != self.reference[1].get(rel):
                c["digest_mismatches"] += 1
                bad = True
            failed += bool(bad or nonfinite)
        if first:
            self.reference = (summary, digests)
        summary_bad = summary != self.reference[0] or nonfinite_values(out_dir, recursive=False)
        if summary_bad or (exit_code != 0 and failed == 0):
            failed = len(results)
        c["attempted"] += len(results)
        c["failed"] += failed
        return csv_digest(out_dir)

    def report(self):
        return dict(self.counts, oracle_worst_rel_err=self.oracle_worst_rel_err)
