#!/usr/bin/env python3
"""Byte-identity check of this working tree against a git revision.

Usage, from anywhere inside the repository:

    python3 tools/byteid.py <rev> [--expect-diff GLOB ...]

The files committed at ``<rev>`` are unpacked with ``git archive`` into
the ignored directory ``.byteid/tree``. One fixed list of ``sparselab``
commands then runs in both trees, each with its own ``src/`` on
``PYTHONPATH`` and BLAS on one thread:

- ``run`` on the three ``perfbench/workloads.py`` configs at seeds 0 and 1;
- ``run`` of the ``soft``, ``skips`` and ``soft+skips`` tweaks on mlp/spirals
  under four more ghost schedules: ``abrupt_removal`` with mish soft neurons,
  ``ghost_at_second_decay`` with pswish (whose swap probe runs at the
  second milestone), ``keep_forever`` at beta 2 and alpha 0.5, and the
  default policy on the cosine shape over 4 epochs with milestone 3, each
  with the spectrum probe on every epoch;
- ``run`` of the ``baseline`` and ``toolkit`` tweaks on resnet-tiny with
  random and GraSP masks at s = 0.9, on a 7x7 teacher input whose stride-2
  convolutions lose taps off an odd edge, with the spectrum probe on every
  epoch;
- ``run`` of the ``baseline`` and ``toolkit`` tweaks on resnet-tiny at
  ``lr0`` 1000, where both diverge at epoch 0, batch 2, so the statistics
  and weights a diverging run leaves behind are compared too;
- ``run`` of the same two tweaks on mlp/spirals at ``lr0`` 1e308, where the
  toolkit's first LRsI objective overflows, so a run that diverges before
  its first step is compared too;
- ``run`` of the same grid at ``lr0`` 0.1 with ghost ``beta0`` and
  ``beta_max`` 1e308, where the toolkit's pswish overflows beta * x and
  must take relu's limit;
- ``run`` of the ``baseline`` and ``toolkit`` tweaks on a layers list over a
  1x8x8 teacher input that the presets do not build: a mish activation, a
  residual block without its native skip and one with pswish, a dense ghost
  site after the global pool and a batchnorm on its 2-D output, with
  random, SNIP, GraSP and SynFlow masks at s = 0.5, the spectrum probe on
  every epoch and one LRsI iteration;
- ``run`` of the ``baseline`` tweak on mlp/spirals with the random,
  magnitude, SNIP, GraSP and lth masks at s in {0, 0.9}, ranked per layer,
  so the ``layerwise`` scope and lth's separate s = 0 path are compared too;
- ``run`` of the ``baseline`` tweak on the mlp preset over an IDX pair of
  120 random 8x8 images that the configs directory also holds, with a
  random mask at s = 0.9, so the IDX loader is compared too;
- ``probe --spectrum --scan --landscape`` on the resnet-probe seed-0
  checkpoint;
- ``mask`` with all six generators at s in {0.5, 0.9, 0.98} on mlp/spirals,
  resnet-tiny/teacher and the thin 6-layer mlp of acceptance criterion 10 on
  spirals (the mlp config enables the spectrum probe, which must not change
  an lth mask; at s = 0.98 the thin net keeps 22 of its 1,088 weights);
- ``compare --out`` of each workload's seed-0 and seed-1 summaries.

Both trees read the same config files and write to ``.byteid/out/base``
and ``.byteid/out/head`` under the same relative paths, so every artifact
and every stdout line can be compared byte for byte. One row is printed
per artifact (path, both sha256 digests, equal or not) and per command
(exit codes and stdout). The exit status is 1 if anything differs outside
the ``--expect-diff`` globs, which match artifact paths and the command
labels ``exit:<label>`` and ``stdout:<label>``. No digest is stored: other
CPUs' BLAS kernels may move the last bits, so the check is between two
trees on one machine.

For information only, a second table gives each command's peak resident
set size in both trees (``ru_maxrss`` from ``os.wait4`` on the child),
and a last line the line count of the ``*.py`` files under each tree's
``src/`` and their difference; neither changes the exit status.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".byteid"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import MLP_MODEL, RESNET_MODEL, WORKLOADS, make_config  # noqa: E402

SEEDS = (0, 1)
ALGOS = ("random", "magnitude", "snip", "grasp", "synflow", "lth")
SPARSITIES = ("0.5", "0.9", "0.98")
TRAIN = {"epochs": 2, "batch": 64, "milestones": [1]}
MASK_CONFIGS = {
    "mlp": {"model": {"preset": "mlp", "in_shape": [2], "classes": 2},
            "dataset": {"name": "spirals", "n": 256, "classes": 2, "seed": 0},
            "mask": {"synflow_iterations": 20, "imp_rounds": 2}, "train": TRAIN,
            "probes": {"enabled": True, "every": 1, "power_iters": 5, "probe_batch": 64}},
    "resnet": {"model": RESNET_MODEL,
               "dataset": {"name": "teacher", "n": 256, "classes": 2, "seed": 0,
                           "input_shape": [1, 8, 8]},
               "mask": {"synflow_iterations": 20, "imp_rounds": 2}, "train": TRAIN},
    "thin": {"model": {"layers": [{"kind": "dense", "width": 16}] * 5
                                 + [{"kind": "dense", "width": 2}],
                       "in_shape": [2], "classes": 2},
             "dataset": {"name": "spirals", "n": 256, "classes": 2, "seed": 0},
             "mask": {"synflow_iterations": 20, "imp_rounds": 2}, "train": TRAIN},
}
GHOST_MLP = {"model": MLP_MODEL,
             "dataset": {"name": "spirals", "n": 256, "classes": 2, "seed": 0},
             "mask": {"algo": "random", "sparsity": 0.9},
             "train": {"epochs": 3, "batch": 64, "milestones": [1, 2]},
             "probes": {"enabled": True, "every": 1, "power_iters": 5, "probe_batch": 64},
             "tweaks": ["soft", "skips", "soft+skips"]}
GHOST_CONFIGS = {
    f"ghost-{name}": {**GHOST_MLP, "ghost": ghost}
    for name, ghost in (("abrupt-mish", {"policy": "abrupt_removal", "activation": "mish"}),
                        ("second-decay", {"policy": "ghost_at_second_decay"}),
                        ("keep-forever", {"policy": "keep_forever", "beta0": 2,
                                          "alpha0": 0.5}))
}
# the default policy on the cosine shape: epochs 1 and 2 anneal along it
GHOST_CONFIGS["ghost-cosine"] = {**GHOST_MLP, "ghost": {"schedule": "cosine", "beta_max": 6},
                                 "train": {"epochs": 4, "batch": 64, "milestones": [3]}}
# resnet-tiny on a 7x7 input (7 -> 4 -> 2, so stride-2 taps fall off an odd
# edge), with the toolkit's ghosts and the spectrum probe every epoch
GHOST_CONFIGS["ghost-resnet-probe"] = {
    "model": {**RESNET_MODEL, "in_shape": [1, 7, 7]},
    "dataset": {"name": "teacher", "n": 128, "classes": 2, "seed": 0, "input_shape": [1, 7, 7]},
    "mask": {"algo": ["random", "grasp"], "sparsity": 0.9},
    "train": {"epochs": 2, "batch": 32, "milestones": [1]},
    "probes": {"enabled": True, "every": 1, "power_iters": 5, "probe_batch": 32},
    "lrsi": {"iters": 1}, "tweaks": ["baseline", "toolkit"]}

# resnet-tiny at lr0 1000: both tweaks diverge at epoch 0, batch 2, after
# batch 1's parameters and batchnorm statistics were committed
DIVERGE_CONFIG = {
    "model": RESNET_MODEL,
    "dataset": {"name": "teacher", "n": 128, "classes": 2, "seed": 0, "input_shape": [1, 8, 8]},
    "mask": {"algo": "random", "sparsity": 0.9},
    "train": {"epochs": 2, "batch": 32, "lr0": 1000.0, "milestones": [1]},
    "tweaks": ["baseline", "toolkit"]}

# mlp at lr0 1e308: the baseline diverges at epoch 0, batch 1, and the
# toolkit in LRsI's objective at unit scales, before any step
LRSI_OVERFLOW_CONFIG = {
    "model": {"preset": "mlp", "in_shape": [2], "hidden": [16, 16], "classes": 2},
    "dataset": {"name": "spirals", "n": 128, "classes": 2, "seed": 0},
    "mask": {"algo": "random", "sparsity": 0.9},
    "train": {"epochs": 3, "batch": 32, "lr0": 1e308, "milestones": [1], "seed": 0},
    "tweaks": ["baseline", "toolkit"]}

# the same grid at lr0 0.1 with pswish at beta 1e308: beta * x overflows
# wherever |x| exceeds about 1.8, and there takes relu's value and derivative
HUGE_BETA_CONFIG = {**LRSI_OVERFLOW_CONFIG,
                    "train": {**LRSI_OVERFLOW_CONFIG["train"], "lr0": 0.1},
                    "ghost": {"beta0": 1e308, "beta_max": 1e308}}

# layer kinds and options beyond the presets; global_pool -> dense(4) keeps
# the width, so that dense layer is a ghost site
LAYERS_LIST_CONFIG = {
    "model": {"layers": [{"kind": "conv3x3", "width": 4}, {"kind": "batchnorm"},
                         {"kind": "activation", "activation": "mish"},
                         {"kind": "residual_block", "width": 4, "has_native_skip": False},
                         {"kind": "residual_block", "width": 4, "activation": "pswish"},
                         {"kind": "global_pool"}, {"kind": "dense", "width": 4},
                         {"kind": "batchnorm"}, {"kind": "activation"},
                         {"kind": "dense", "width": 2}],
              "in_shape": [1, 8, 8], "classes": 2},
    "dataset": {"name": "teacher", "n": 128, "classes": 2, "seed": 0, "input_shape": [1, 8, 8]},
    "mask": {"algo": ["random", "snip", "grasp", "synflow"], "sparsity": 0.5,
             "synflow_iterations": 5},
    "train": {"epochs": 2, "batch": 32, "milestones": [1]},
    "probes": {"enabled": True, "every": 1, "power_iters": 5, "probe_batch": 32},
    "lrsi": {"iters": 1}, "tweaks": ["baseline", "toolkit"]}

# the four scoped generators ranked per layer, and lth, each at s = 0 too
SCOPE_LAYERWISE_CONFIG = {
    "model": {"preset": "mlp", "in_shape": [2], "hidden": [16, 16], "classes": 2},
    "dataset": {"name": "spirals", "n": 128, "classes": 2, "seed": 0},
    "mask": {"algo": ["random", "magnitude", "snip", "grasp", "lth"], "sparsity": [0.0, 0.9],
             "scope": "layerwise", "imp_rounds": 2},
    "train": {"epochs": 1, "batch": 32, "milestones": []}}


# the mlp preset on write_idx_pair's files, so the IDX loader's reading and
# scalar normalisation are compared too
IDX_CONFIG = {
    "model": {"preset": "mlp", "in_shape": [1, 8, 8], "classes": 2},
    "dataset": {"name": "idx", "path": "../configs/idx/images-idx3-ubyte"},
    "mask": {"algo": "random", "sparsity": 0.9},
    "train": {"epochs": 2, "batch": 32, "milestones": [1]}}


def write_idx_pair(idx_dir):
    """``images-idx3-ubyte`` and ``labels-idx1-ubyte``: 120 random 8x8
    images and their labels in {0, 1}."""
    rng, n = np.random.default_rng(0), 120
    images = rng.integers(0, 256, size=(n, 8, 8), dtype=np.uint8)
    labels = rng.integers(0, 2, size=n, dtype=np.uint8)
    idx_dir.mkdir(parents=True)
    (idx_dir / "images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x803, n, 8, 8)
                                                + images.tobytes())
    (idx_dir / "labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


def write_configs(config_dir):
    """Every config the commands read, as JSON files both trees share, and
    the IDX pair ``IDX_CONFIG`` names."""
    config_dir.mkdir(parents=True)
    write_idx_pair(config_dir / "idx")
    configs = {f"{w}-s{s}": make_config(w, s)[0] for w in WORKLOADS for s in SEEDS}
    configs.update(GHOST_CONFIGS)
    configs["diverge-resnet"] = DIVERGE_CONFIG
    configs["lrsi-overflow"] = LRSI_OVERFLOW_CONFIG
    configs["huge-beta"] = HUGE_BETA_CONFIG
    configs["layers-list"] = LAYERS_LIST_CONFIG
    configs["scope-layerwise"] = SCOPE_LAYERWISE_CONFIG
    configs["idx"] = IDX_CONFIG
    configs.update({f"mask-{name}": cfg for name, cfg in MASK_CONFIGS.items()})
    for name, cfg in configs.items():
        (config_dir / f"{name}.json").write_text(json.dumps(cfg, indent=1))
    return configs


def command_list(configs):
    """(label, argv after ``sparselab``) for every command, in run order."""
    cmds = [(f"run-{name}", ["run", f"../configs/{name}.json", "--out", f"run/{name}"])
            for name in configs if not name.startswith("mask-")]
    probe = configs["resnet-probe-s0"]
    cell = (f"{probe['mask']['algo']}_s{format(probe['mask']['sparsity'], 'g')}_"
            f"{probe['tweaks'][0]}/seed{probe['train']['seed']}")
    cmds.append(("probe-resnet-probe-s0",
                 ["probe", f"run/resnet-probe-s0/{cell}/final.splb",
                  "--config", "../configs/resnet-probe-s0.json",
                  "--spectrum", "--scan", "--landscape", "--out", "probe/resnet-probe-s0"]))
    for name in MASK_CONFIGS:
        for algo in ALGOS:
            for s in SPARSITIES:
                cmds.append((f"mask-{name}-{algo}-s{s}",
                             ["mask", f"../configs/mask-{name}.json", "--algo", algo,
                              "--sparsity", s, "--out", f"mask/{name}-{algo}-s{s}.splb"]))
    for w in WORKLOADS:
        cmds.append((f"compare-{w}", ["compare", f"run/{w}-s0/summary.csv",
                                      f"run/{w}-s1/summary.csv", "--out", f"compare/{w}.csv"]))
    return cmds


def run_command(argv, cwd, env):
    """(exit code, stdout bytes, stderr bytes, peak RSS in MB) of one child."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)     # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024   # KiB on Linux


def run_tree(src, out, cmds):
    """Run ``cmds`` with ``src`` on the path and ``out`` as working directory;
    returns label -> (exit code, stdout bytes, peak RSS in MB)."""
    for sub in ("run", "probe", "mask", "compare"):
        (out / sub).mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    results = {}
    for label, argv in cmds:
        code, stdout, stderr, rss = run_command([sys.executable, "-m", "sparselab", *argv],
                                                out, env)
        if code:
            sys.stderr.write(f"{label}: exit {code}\n{stderr.decode()}")
        results[label] = (code, stdout, rss)
    return results


def digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def src_lines(src):
    """Lines (newlines, as ``wc -l`` counts them) of every ``*.py`` file under ``src``."""
    return sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py"))


def compare(base, head, base_out, head_out):
    """Rows (name, base value, head value) for every artifact and command."""
    rows = []
    a, b = digests(base_out), digests(head_out)
    for path in sorted(set(a) | set(b)):
        rows.append((path, a.get(path, "missing"), b.get(path, "missing")))
    for label in base:
        (code_a, out_a, _), (code_b, out_b, _) = base[label], head[label]
        rows.append((f"exit:{label}", str(code_a), str(code_b)))
        rows.append((f"stdout:{label}", hashlib.sha256(out_a).hexdigest(),
                     hashlib.sha256(out_b).hexdigest()))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="GLOB",
                        help="artifact path or command label allowed to differ")
    args = parser.parse_args()

    shutil.rmtree(WORK, ignore_errors=True)     # and with it any earlier run
    tree = WORK / "tree"
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    configs = write_configs(WORK / "out" / "configs")
    cmds = command_list(configs)
    base = run_tree(tree / "src", WORK / "out" / "base", cmds)
    head = run_tree(ROOT / "src", WORK / "out" / "head", cmds)

    rows = compare(base, head, WORK / "out" / "base", WORK / "out" / "head")
    unexpected = expected = 0
    for name, a, b in rows:
        if a == b:
            status = "equal"
        elif any(fnmatch.fnmatch(name, g) for g in args.expect_diff):
            status, expected = "DIFF (expected)", expected + 1
        else:
            status, unexpected = "DIFF", unexpected + 1
        print(f"{name}  {a}  {b}  {status}")
    print(f"byteid: {len(rows)} rows against {args.rev}: {len(rows) - expected - unexpected} "
          f"equal, {expected} expected differences, {unexpected} unexpected")
    print(f"peak RSS in MB per command, {args.rev} -> working tree (information only):")
    for label in base:
        a, b = base[label][2], head[label][2]
        print(f"rss:{label}  {a:.1f}  {b:.1f}  {100 * (b - a) / a:+.1f}%")
    a, b = src_lines(tree / "src"), src_lines(ROOT / "src")
    print(f"src/ lines, {args.rev} -> working tree (information only): {a} -> {b} ({b - a:+d})")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
