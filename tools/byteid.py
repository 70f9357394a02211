#!/usr/bin/env python3
"""Byte-identity check of this working tree against a git revision.

Usage, from anywhere inside the repository:

    python3 tools/byteid.py <rev> [--expect-diff GLOB ...]

The files committed at ``<rev>`` are unpacked with ``git archive`` into
the ignored directory ``.byteid/tree``. One fixed list of ``sparselab``
commands then runs in both trees, each with its own ``src/`` on
``PYTHONPATH`` and BLAS on one thread:

- ``run`` on the three ``perfbench/workloads.py`` configs at seeds 0 and 1;
- ``probe --spectrum --scan --landscape`` on the resnet-probe seed-0
  checkpoint;
- ``mask`` with all six generators at s in {0.5, 0.9, 0.98} on mlp/spirals
  and resnet-tiny/teacher (the mlp config enables the spectrum probe, which
  must not change an lth mask);
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
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".byteid"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import RESNET_MODEL, WORKLOADS, make_config  # noqa: E402

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
}


def write_configs(config_dir):
    """Every config the commands read, as JSON files both trees share."""
    config_dir.mkdir(parents=True)
    configs = {f"{w}-s{s}": make_config(w, s)[0] for w in WORKLOADS for s in SEEDS}
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
