"""Experiment grids: configuration, execution, summaries, comparisons.

A UTF-8 JSON config describes one grid: mask algorithms x sparsities x
tweak subsets x seeds. Every cell builds a model, generates its mask,
optionally rescales the initialization, trains with the selected tweaks,
and writes per-run CSVs plus a final checkpoint. A summary table reports
mean and sample standard deviation (n-1 denominator) of the final test
accuracy over seeds.

Unknown config keys are errors: silent typos must not change a run.
All artifacts are reproducible byte-for-byte from the config file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from sparselab import checkpoint, datasets, masks, training
from sparselab.diagnostics import ProbeConfig
from sparselab.ghost import ConfigError, GhostConfig
from sparselab.layers import build_model
from sparselab.rescale import LRsIConfig
from sparselab.training import TrainConfig

MASK_ALGOS = ("random", "magnitude", "snip", "grasp", "synflow", "lth")
TWEAK_TOKENS = ("soft", "skips", "lrsi", "ls")

# train-section key -> (TrainConfig field, cast); ls_alpha and seed are read
# apart: smoothing belongs to the "ls" tweak and the seed is a grid axis
_TRAIN_FIELDS = {"epochs": ("epochs", int), "batch": ("batch_size", int),
                 "lr0": ("lr0", float), "momentum": ("momentum", float),
                 "wd": ("weight_decay", float), "milestones": ("milestones", tuple)}

_SCHEMA = {
    "model": {"preset", "layers", "in_shape", "classes", "hidden", "channels"},
    "dataset": {"name", "n", "classes", "noise", "seed", "input_shape",
                "path", "labels_path", "limit"},
    "mask": {"algo", "sparsity", "scope", "synflow_iterations", "imp_rounds"},
    "train": set(_TRAIN_FIELDS) | {"ls_alpha", "seed"},
    "ghost": {"policy", "beta0", "beta_max", "alpha0", "schedule", "activation"},
    "lrsi": {"iters", "step", "bounds"},
    "probes": {"enabled", "every", "eig_count", "power_iters", "tol", "act_eps",
               "probe_batch", "landscape_grid", "landscape_span"},
}
_TOP_KEYS = set(_SCHEMA) | {"tweaks", "out_dir"}


@dataclass
class ExperimentConfig:
    raw: dict
    algos: list
    sparsities: list
    tweaks: list
    seeds: list
    out_dir: str
    dataset: datasets.Dataset = field(repr=False)


def _check_keys(section, given, allowed):
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) in {section}: {sorted(unknown)}")


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def parse_tweaks(label):
    """'baseline' -> none; 'toolkit' -> all four; otherwise '+'-joined tokens."""
    if label == "baseline":
        return set()
    if label in ("toolkit", "full"):
        return set(TWEAK_TOKENS)
    tokens = set(label.split("+"))
    bad = tokens - set(TWEAK_TOKENS)
    if bad:
        raise ConfigError(f"unknown tweak token(s) {sorted(bad)} in {label!r}")
    return tokens


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} in config")


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh, parse_constant=_reject_constant)
    return validate_config(raw)


def validate_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys("top level", raw, _TOP_KEYS)
    for section, allowed in _SCHEMA.items():
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            _check_keys(section, raw[section], allowed)
    for required in ("model", "dataset", "mask", "train"):
        if required not in raw:
            raise ConfigError(f"config is missing the {required!r} section")

    mask = raw["mask"]
    algos = [str(a) for a in _as_list(mask.get("algo", "random"))]
    for a in algos:
        if a not in MASK_ALGOS:
            raise ConfigError(f"unknown mask algo {a!r}; choose from {MASK_ALGOS}")
    sparsities = [float(s) for s in _as_list(mask.get("sparsity", 0.9))]
    for s in sparsities:
        if not 0.0 <= s < 1.0:
            raise ConfigError(f"sparsity must be in [0,1), got {s}")
    if "scope" in mask and mask["scope"] not in masks.SCOPES:
        raise ConfigError(f"unknown mask scope {mask['scope']!r}; choose from {masks.SCOPES}")
    for key in ("synflow_iterations", "imp_rounds"):
        if key in mask and not int(mask[key]) >= 1:
            raise ConfigError(f"mask {key} must be >= 1, got {mask[key]}")
    tweaks = [str(t) for t in _as_list(raw.get("tweaks", ["baseline"]))]
    for t in tweaks:
        parse_tweaks(t)
    seeds = [int(s) for s in _as_list(raw["train"].get("seed", 0))]
    # each axis value names its own cell directory (sparsities by format 'g')
    for axis, keys in (("mask algo", algos), ("sparsity", [format(s, "g") for s in sparsities]),
                       ("tweak", tweaks), ("seed", seeds)):
        if len(set(keys)) < len(keys):
            raise ConfigError(f"repeated {axis} on the grid: {keys}")
    out_dir = raw.get("out_dir", "runs")
    # building every per-run config, the dataset and the first model validates the rest
    try:
        for t in tweaks:
            _train_config(raw, t, seeds[0])
        dataset = _build_dataset(raw)
        model = build_model(raw["model"], seed=seeds[0])
    except (TypeError, ValueError) as exc:      # a value of the wrong type or range
        raise ConfigError(str(exc)) from exc
    if model.in_shape != dataset.input_shape:
        raise ConfigError(f"model in_shape {model.in_shape} != dataset shape {dataset.input_shape}")
    if model.n_classes < dataset.n_classes:
        raise ConfigError(f"model has {model.n_classes} classes, dataset {dataset.n_classes}")
    return ExperimentConfig(raw=raw, algos=algos, sparsities=sparsities, tweaks=tweaks,
                            seeds=seeds, out_dir=out_dir, dataset=dataset)


def _probe_config(raw):
    p = raw.get("probes")
    if not p:
        return None
    return ProbeConfig(**p)


def _train_config(raw, tweak_label, seed):
    t = raw["train"]
    tokens = parse_tweaks(tweak_label)
    ghost = None
    if tokens & {"soft", "skips"}:
        g = dict(raw.get("ghost", {}))
        ghost = GhostConfig(soft_neurons="soft" in tokens, skip_gates="skips" in tokens, **g)
    lrsi = None
    if "lrsi" in tokens:
        kw = dict(raw.get("lrsi", {}))
        if "bounds" in kw:
            kw["bounds"] = tuple(kw["bounds"])
        lrsi = LRsIConfig(**kw)
    kw = {f: cast(t[key]) for key, (f, cast) in _TRAIN_FIELDS.items() if key in t}
    ls_alpha = float(t.get("ls_alpha", 0.1)) if "ls" in tokens else 0.0
    return TrainConfig(**kw, ls_alpha=ls_alpha, seed=seed, ghost=ghost, lrsi=lrsi,
                       probes=_probe_config(raw))


def _build_dataset(raw):
    d = raw["dataset"]
    name = d.get("name", "spirals")
    if name == "idx":
        return datasets.load_idx_images(d["path"], d.get("labels_path"), d.get("limit"))
    return datasets.make_synthetic(
        name, int(d.get("n", 512)), int(d.get("classes", 2)),
        noise=float(d.get("noise", 0.1)), seed=int(d.get("seed", 0)),
        input_shape=tuple(d["input_shape"]) if "input_shape" in d else None)


def generate_mask(algo, model, dataset, sparsity, seed, raw):
    """Dispatch to the requested generator with a deterministic batch."""
    mask_cfg = raw.get("mask", {})
    scope = mask_cfg.get("scope", "global")
    cfg = _train_config(raw, "baseline", seed)
    batch = (dataset.x_train[:cfg.batch_size], dataset.y_train[:cfg.batch_size])
    if algo == "random":
        return masks.random_mask(model, sparsity, seed=seed, scope=scope)
    if algo == "magnitude":
        return masks.magnitude_mask(model, sparsity, scope=scope)
    if algo == "snip":
        return masks.snip_mask(model, batch, sparsity, scope=scope)
    if algo == "grasp":
        return masks.grasp_mask(model, batch, sparsity, scope=scope)
    if algo == "synflow":
        return masks.synflow_mask(model, sparsity,
                                  iterations=int(mask_cfg.get("synflow_iterations", 100)))
    if algo == "lth":
        if sparsity == 0.0:
            return masks.random_mask(model, 0.0, seed=seed)
        rounds = int(mask_cfg.get("imp_rounds", 3))
        rate = 1.0 - (1.0 - sparsity) ** (1.0 / rounds)
        found, _ = masks.imp_lth(model, dataset, rounds, rate, cfg)
        return found
    raise ConfigError(f"unknown mask algo {algo!r}")


@dataclass
class CellResult:
    algo: str
    sparsity: float
    tweaks: str
    seed: int
    final_test_acc: float
    best_test_acc: float
    final_train_loss: float
    diverged: bool
    history: list = field(repr=False, default_factory=list)


def _cell_dir(out_dir, algo, sparsity, tweaks):
    return os.path.join(out_dir, f"{algo}_s{format(sparsity, 'g')}_{tweaks}")


def run_experiment(config_path, out_dir=None):
    """Execute every grid cell; returns (exit_code, results). ``config_path``
    may also be an ExperimentConfig that load_config already returned.

    Exit codes: 0 success, 1 at least one run diverged, 2 config error
    (raised as ConfigError by load_config before any run starts).
    """
    cfg = config_path if isinstance(config_path, ExperimentConfig) else load_config(config_path)
    out_root = out_dir or cfg.out_dir
    os.makedirs(out_root, exist_ok=True)
    dataset = cfg.dataset
    results = []
    for algo in cfg.algos:
        for s in cfg.sparsities:
            for seed in cfg.seeds:
                model0 = build_model(cfg.raw["model"], seed=seed)
                mask = generate_mask(algo, model0, dataset, s, seed, cfg.raw)
                for tweaks in cfg.tweaks:
                    tc = _train_config(cfg.raw, tweaks, seed)
                    model = build_model(cfg.raw["model"], seed=seed)
                    history = training.train(model, dataset, tc, mask=mask)
                    results.append(_finish_cell(out_root, model, history, tc,
                                                algo, s, tweaks, seed))
    _write_summary(os.path.join(out_root, "summary.csv"), results)
    exit_code = 1 if any(r.diverged for r in results) else 0
    return exit_code, results


def _finish_cell(out_root, model, history, tc, algo, s, tweaks, seed):
    run_dir = os.path.join(_cell_dir(out_root, algo, s, tweaks), f"seed{seed}")
    os.makedirs(run_dir, exist_ok=True)
    n_act = len(model.activation_site_names())
    pc = tc.probes or ProbeConfig()
    training.write_metrics_csv(os.path.join(run_dir, "metrics.csv"),
                               history, n_act, pc.eig_count)
    if pc.enabled:
        _write_spectrum_csv(os.path.join(run_dir, "spectrum.csv"), pc.eig_count,
                            [(r.epoch, r.top_eigs, r.eig_residuals, r.eig_converged)
                             for r in history if r.top_eigs is not None])
    if model.applied_scales is not None:
        training.write_csv(os.path.join(run_dir, "lrsi_scales.csv"), ["block_group", "scale"],
                           ((group, float(c)) for group, c in model.applied_scales.scales.items()))
    checkpoint.save_model(os.path.join(run_dir, "final.splb"), model)
    accs = [r.test_acc for r in history if not r.diverged]
    diverged = bool(history) and history[-1].diverged
    return CellResult(
        algo=algo, sparsity=s, tweaks=tweaks, seed=seed,
        final_test_acc=accs[-1] if accs else math.nan,
        best_test_acc=max(accs) if accs else math.nan,
        final_train_loss=history[-1].train_loss if history else math.nan,
        diverged=diverged, history=history)


def _write_spectrum_csv(path, eig_count, rows):
    """One row per probe from ``(epoch, eigenvalues, residuals, converged)``.

    epoch may be None; ``converged_j`` is written 1 or 0, so a probe that
    stopped without converging is marked as such next to its value.
    """
    header = ["epoch"] + [f"{col}_{j+1}" for col in ("lambda", "residual", "converged")
                          for j in range(eig_count)]
    training.write_csv(path, header, ((epoch, *eigs, *resids, *map(int, converged))
                                      for epoch, eigs, resids, converged in rows))


SUMMARY_COLUMNS = ["mask_algo", "sparsity", "tweaks", "n_seeds",
                   "final_test_acc_mean", "final_test_acc_sample_std",
                   "best_test_acc_mean", "final_train_loss_mean", "diverged_runs"]


def _write_summary(path, results):
    """One row per (algo, sparsity, tweaks); sample std uses the n-1 denominator."""
    cells = {}
    for r in results:
        cells.setdefault((r.algo, r.sparsity, r.tweaks), []).append(r)
    rows = []
    for key, cell in cells.items():
        accs = [c.final_test_acc for c in cell]
        rows.append([*key, len(cell), float(np.mean(accs)),
                     float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
                     float(np.mean([c.best_test_acc for c in cell])),
                     float(np.mean([c.final_train_loss for c in cell])),
                     sum(1 for c in cell if c.diverged)])
    training.write_csv(path, SUMMARY_COLUMNS, rows)


def read_summary(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def compare_runs(paths, out_path=None):
    """Per-cell accuracy deltas of each later summary against the first.

    Cells align on (mask_algo, sparsity, tweaks); the key sets must match
    exactly. The delta std combines the two sample stds as
    sqrt(s1^2/n1 + s2^2/n2).
    """
    if len(paths) < 2:
        raise ValueError("compare_runs: need at least two summaries")
    tables = []
    for p in paths:
        rows = {(r["mask_algo"], r["sparsity"], r["tweaks"]): r for r in read_summary(p)}
        tables.append(rows)
    base = tables[0]
    for p, t in zip(paths[1:], tables[1:]):
        if set(t) != set(base):
            raise ValueError(f"compare_runs: {p} does not share grid axes with {paths[0]}")
    out_rows = []
    for key in base:
        for i, t in enumerate(tables[1:], start=1):
            a, b = base[key], t[key]
            m1, m2 = float(a["final_test_acc_mean"]), float(b["final_test_acc_mean"])
            s1, s2 = float(a["final_test_acc_sample_std"]), float(b["final_test_acc_sample_std"])
            n1, n2 = int(a["n_seeds"]), int(b["n_seeds"])
            out_rows.append({
                "mask_algo": key[0], "sparsity": key[1], "tweaks": key[2],
                "summary": os.path.basename(paths[i]),
                "acc_base": m1, "acc_other": m2, "delta": m2 - m1,
                "delta_std": math.sqrt(s1 ** 2 / n1 + s2 ** 2 / n2),
            })
    if out_path:
        header = ["mask_algo", "sparsity", "tweaks", "summary",
                  "acc_base", "acc_other", "delta", "delta_std"]
        training.write_csv(out_path, header, ([r[c] for c in header] for r in out_rows))
    return out_rows
