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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from sparselab import checkpoint, datasets, masks, training
from sparselab.diagnostics import ProbeConfig
from sparselab.ghost import ConfigError, GhostConfig
from sparselab.layers import build_model
from sparselab.rescale import LRsIConfig
from sparselab.training import TrainConfig

MASK_ALGOS = ("random", "magnitude", "snip", "grasp", "synflow", "lth")
TWEAK_TOKENS = ("soft", "skips", "lrsi", "ls")


def _strict(what, ok, convert):
    """A cast ``cast(key, value)``: ``convert(value)`` of the JSON values ``ok`` accepts."""
    def cast(key, value):
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return convert(value)
    return cast


# bool is a subclass of int, so each test names its types exactly
_INT = _strict("an integer", lambda v: type(v) is int, int)
_FLOAT = _strict("a number", lambda v: type(v) in (int, float), float)
_STR = _strict("a string", lambda v: type(v) is str, str)
_INTS = _strict("a list of integers", lambda v: isinstance(v, (list, tuple))
                and all(type(d) is int for d in v), tuple)
_CASTS = {"int": _INT, "float": _FLOAT, "str": _STR,     # by annotation
          "bool": _strict("true or false", lambda v: type(v) is bool, bool)}
_COUNT = _strict("an integer >= 1", lambda v: type(v) is int and v >= 1, int)
_ALGO = _strict(f"one of {MASK_ALGOS}", lambda v: v in MASK_ALGOS, str)
_SPARSITY = lambda key, v: masks.check_sparsity(_FLOAT(key, v), key)
_SCOPE = _strict(f"one of {masks.SCOPES}", lambda v: v in masks.SCOPES, str)


def _axis(cast, dirname):
    """A grid axis: one value or a list of them, no two naming one cell directory."""
    def read(key, v):
        values = [cast(key, x) for x in (v if isinstance(v, (list, tuple)) else [v])]
        if not values or len({dirname(x) for x in values}) < len(values):
            raise ConfigError(f"{key} must be one value or a list of distinct ones, got {v!r}")
        return values
    return read


def _fields_table(cls, set_by_tweaks):
    """key -> (field, cast) for a config dataclass, cast by each field's annotation."""
    return {f.name: (f.name, _CASTS[f.type]) for f in fields(cls) if f.name not in set_by_tweaks}


# One table per config section: key -> (owner parameter, cast). Only the
# keys a config writes are passed on, so each default stays with its owner.
# The grid axes and the "ls" tweak's ls_alpha are taken out first; dataset
# "idx" goes to load_idx_images, any other name to make_synthetic.
_TRAIN_FIELDS = {"epochs": ("epochs", _INT), "batch": ("batch_size", _INT),
                 "lr0": ("lr0", _FLOAT), "momentum": ("momentum", _FLOAT),
                 "wd": ("weight_decay", _FLOAT), "milestones": ("milestones", _INTS),
                 "ls_alpha": ("ls_alpha", _FLOAT), "seed": ("seeds", _axis(_INT, str))}
_TABLES = {
    "dataset": {"name": ("name", _STR), "path": ("path", _STR),
                "labels_path": ("labels_path", _STR), "limit": ("limit", _INT),
                "n": ("n", _INT), "classes": ("k_classes", _INT), "noise": ("noise", _FLOAT),
                "seed": ("seed", _INT), "input_shape": ("input_shape", _INTS)},
    "mask": {"sparsity": ("sparsities", _axis(_SPARSITY, lambda s: format(s, "g"))),
             "algo": ("algos", _axis(_ALGO, str)), "scope": ("scope", _SCOPE),
             "synflow_iterations": ("iterations", _COUNT), "imp_rounds": ("rounds", _COUNT)},
    "train": _TRAIN_FIELDS,
    "ghost": _fields_table(GhostConfig, {"soft_neurons", "skip_gates"}),
    "lrsi": _fields_table(LRsIConfig, ()),
    "probes": _fields_table(ProbeConfig, ()),
}
# the whole config: each section goes through its table, "model" to build_model
_CONFIG = {"tweaks": ("tweaks", _axis(_STR, str)), "out_dir": ("out_dir", _STR),
           "model": ("model", lambda key, v: v),
           **{s: (s, lambda key, v, t=table: _read(key, v, t)) for s, table in _TABLES.items()}}


@dataclass
class ExperimentConfig:
    """A validated config: the grid axes and the objects that run each cell."""
    raw: dict
    algos: list
    sparsities: list
    tweaks: list
    seeds: list
    out_dir: str
    dataset: datasets.Dataset = field(repr=False)
    train: dict = field(repr=False)    # tweak label -> TrainConfig (first seed), "baseline" too
    mask_options: dict = field(repr=False)      # generator parameter -> value


def _read(section, given, table):
    """The owners' keyword arguments for the keys ``section`` writes."""
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {given!r}")
    unknown = set(given) - set(table)
    if unknown:
        raise ConfigError(f"unknown config key(s) in {section}: {sorted(unknown)}")
    return {table[key][0]: table[key][1](f"{section}.{key}", v) for key, v in given.items()}


def parse_tweaks(label):
    """'baseline' -> none; 'toolkit' -> all four; otherwise '+'-joined tokens."""
    if label == "baseline":
        return set()
    if label == "toolkit":
        return set(TWEAK_TOKENS)
    tokens = set(label.split("+"))
    bad = tokens - set(TWEAK_TOKENS)
    if bad:
        raise ConfigError(f"unknown tweak token(s) {sorted(bad)} in {label!r}")
    return tokens


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} in config")


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return validate_config(raw)


def validate_config(raw):
    """The objects that run the grid, each section parsed through its table."""
    kw = {"ghost": {}, "lrsi": {}, "probes": {}, **_read("config", raw, _CONFIG)}
    for required in ("model", "dataset", "mask", "train"):
        if required not in kw:
            raise ConfigError(f"config is missing the {required!r} section")
    options, data, seeds = kw["mask"], kw["dataset"], kw["train"].pop("seeds", [0])
    algos, sparsities = options.pop("algos", ["random"]), options.pop("sparsities", [0.9])
    tweaks, out_dir = kw.get("tweaks", ["baseline"]), kw.get("out_dir", "runs")
    try:
        kw["probes"] = ProbeConfig(**kw["probes"])
        configs = {t: _train_config(t, kw, seeds[0]) for t in ["baseline", *tweaks]}
        name = data.pop("name", "spirals")
        if (unread := {"spirals": "input_shape", "teacher": "noise"}.get(name)) in data:
            raise ConfigError(f"dataset.{unread} does nothing for dataset {name!r}")
        dataset = (datasets.load_idx_images(**data) if name == "idx"
                   else datasets.make_synthetic(name, **data))
        model = build_model(kw["model"], seed=seeds[0])
    except (TypeError, ValueError) as exc:      # an owner rejected a value
        raise ConfigError(str(exc)) from exc
    if model.in_shape != dataset.input_shape:
        raise ConfigError(f"model in_shape {model.in_shape} != dataset shape {dataset.input_shape}")
    if model.n_classes < dataset.n_classes:
        raise ConfigError(f"model has {model.n_classes} classes, dataset {dataset.n_classes}")
    return ExperimentConfig(raw=raw, algos=algos, sparsities=sparsities, tweaks=tweaks,
                            seeds=seeds, out_dir=out_dir, dataset=dataset,
                            train=configs, mask_options=options)


def _train_config(tweak_label, kw, seed):
    """The TrainConfig of a tweak label; its tokens switch on ghost, lrsi and ls."""
    tokens = parse_tweaks(tweak_label)
    train = dict(kw["train"])
    ls_alpha = train.pop("ls_alpha", 0.1)       # the "ls" tweak's smoothing
    if "ls" in tokens:
        train["ls_alpha"] = ls_alpha
    if tokens & {"soft", "skips"}:
        train["ghost"] = GhostConfig(soft_neurons="soft" in tokens,
                                     skip_gates="skips" in tokens, **kw["ghost"])
    if "lrsi" in tokens:
        train["lrsi"] = LRsIConfig(**kw["lrsi"])
    return TrainConfig(**train, seed=seed, probes=kw["probes"])


def generate_mask(algo, model, dataset, sparsity, seed, cfg):
    """Dispatch to the requested generator with the mask options of ``cfg``;
    its baseline TrainConfig (at ``seed``) gives the batch and lth's training.
    ``sparsity`` is checked before lth turns it into a per-round rate."""
    masks.check_sparsity(sparsity)
    train = replace(cfg.train["baseline"], seed=seed)
    batch = (dataset.x_train[:train.batch_size], dataset.y_train[:train.batch_size])
    options = cfg.mask_options
    scope = {k: v for k, v in options.items() if k == "scope"}    # the four scoped generators
    if algo == "random":
        return masks.random_mask(model, sparsity, seed=seed, **scope)
    if algo == "magnitude":
        return masks.magnitude_mask(model, sparsity, **scope)
    if algo == "snip":
        return masks.snip_mask(model, batch, sparsity, **scope)
    if algo == "grasp":
        return masks.grasp_mask(model, batch, sparsity, **scope)
    if algo == "synflow":
        iterations = {k: v for k, v in options.items() if k == "iterations"}
        return masks.synflow_mask(model, sparsity, **iterations)
    if algo == "lth":
        if sparsity == 0.0:
            return masks.random_mask(model, 0.0, seed=seed)
        rounds = options.get("rounds", 3)
        rate = 1.0 - (1.0 - sparsity) ** (1.0 / rounds)
        return masks.imp_lth(model, dataset, rounds, rate, train)
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
    results = []
    for algo in cfg.algos:
        for s in cfg.sparsities:
            for seed in cfg.seeds:
                model0 = build_model(cfg.raw["model"], seed=seed)
                mask = generate_mask(algo, model0, cfg.dataset, s, seed, cfg)
                for tweaks in cfg.tweaks:
                    tc = replace(cfg.train[tweaks], seed=seed)
                    model = masks.apply_mask(build_model(cfg.raw["model"], seed=seed), mask)
                    run = training.train(model, cfg.dataset, tc)
                    results.append(_finish_cell(out_root, model, run, tc,
                                                algo, s, tweaks, seed))
    _write_summary(os.path.join(out_root, "summary.csv"), results)
    exit_code = 1 if any(r.diverged for r in results) else 0
    return exit_code, results


def _finish_cell(out_root, model, run, tc, algo, s, tweaks, seed):
    history = run.history
    run_dir = os.path.join(_cell_dir(out_root, algo, s, tweaks), f"seed{seed}")
    os.makedirs(run_dir, exist_ok=True)
    n_act = len(model.activation_site_names())
    training.write_metrics_csv(os.path.join(run_dir, "metrics.csv"),
                               history, n_act, tc.probes.eig_count)
    if tc.probes.enabled:
        _write_spectrum_csv(os.path.join(run_dir, "spectrum.csv"), tc.probes.eig_count,
                            [(r.epoch, r.spectrum) for r in history if r.spectrum is not None])
    if run.scales is not None:
        training.write_csv(os.path.join(run_dir, "lrsi_scales.csv"), ["block_group", "scale"],
                           ((group, float(c)) for group, c in run.scales.scales.items()))
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
    """One row per probe from ``(epoch, SpectrumRecord)``.

    epoch may be None; ``converged_j`` is written 1 or 0, so a probe that
    stopped without converging is marked as such next to its value.
    """
    header = ["epoch"] + [f"{col}_{j+1}" for col in ("lambda", "residual", "converged")
                          for j in range(eig_count)]
    training.write_csv(path, header, ((epoch, *rec.eigenvalues, *rec.residuals,
                                       *map(int, rec.converged)) for epoch, rec in rows))


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
        return list(csv.DictReader(fh))


def compare_runs(paths, out_path=None):
    """Per-cell accuracy deltas of each later summary against the first.

    Cells align on (mask_algo, sparsity, tweaks); the key sets must match
    exactly. The delta std combines the two sample stds as
    sqrt(s1^2/n1 + s2^2/n2).
    """
    if len(paths) < 2:
        raise ValueError("compare_runs: need at least two summaries")
    tables = [{(r["mask_algo"], r["sparsity"], r["tweaks"]): r for r in read_summary(p)}
              for p in paths]
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
