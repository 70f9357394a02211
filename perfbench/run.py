#!/usr/bin/env python3
"""Benchmark of `sparselab run` end to end, with an outside-in layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload mlp-grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

One invocation measures one workload (see ``workloads.py``) in this
process, with BLAS pinned to one thread:

1. Set-up: ``SETUP_SAMPLES`` fresh interpreters each time one cold
   set-up (import, config validation, dataset, first model); ``setup_s``
   is their median.
2. Untraced repeats of ``experiments.run_experiment`` (the function behind
   ``sparselab run``) until ``--seconds`` of run time is used, at least
   ``MIN_REPEATS``; ``run_s`` is their median. Every repeat's output is
   checked (see ``checks.py``).
3. With ``--trace 1``, one more run with every public sparselab function
   wrapped by ``tracer.Tracer``, giving per-layer counts and self times.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` grid cells, and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``). Everything else,
the environment and the check results included, goes to the lines before
it and to ``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
Run directories live in a temporary directory under ``.perfbench/`` that
is removed before exit; timings never go into a CSV.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported anywhere

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from checks import RunChecker, csv_digest  # noqa: E402
from tracer import OPS, Tracer  # noqa: E402
from workloads import WORKLOADS, build_dataset, make_config  # noqa: E402

MIN_REPEATS = 3
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "cells_ok_ratio": "ratio"}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def import_package():
    """Import sparselab from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "sparselab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sparselab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sparselab
    if Path(sparselab.__file__).resolve().parent != (SRC / "sparselab").resolve():
        sys.exit(f"perfbench: imported sparselab from {sparselab.__file__}, not {SRC}")


def environment():
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": commit}


def setup_times(config_path):
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), config_path],
                              capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tr, wall, untraced_run_s):
    """Per-layer metrics of one traced run.

    ``calls`` counts spans, ``s`` is inclusive time and ``self_s`` leaves
    out child spans. An op's ``fwd_s`` is the inclusive time of its calls
    and ``bwd_s`` that of its backward closures. GFLOP and im2col MB are
    computed from operand shapes, not measured.
    """
    m = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_s"] = _metric(tr.inclusive(f"autodiff.{op}"), "s")
        m[f"autodiff.{op}.bwd_s"] = _metric(tr.inclusive(f"autodiff.{op}.bwd"), "s")
        m[f"autodiff.{op}.calls"] = _metric(tr.calls(f"autodiff.{op}"), "count")
    for op in ("conv2d", "matmul"):
        busy = tr.inclusive(f"autodiff.{op}") + tr.inclusive(f"autodiff.{op}.bwd")
        gflop = tr.counters.get(f"autodiff.{op}.flop", 0.0) / 1e9
        if op == "conv2d":
            m["autodiff.conv2d.gflop"] = _metric(gflop, "GFLOP")
            m["autodiff.conv2d.cols_mb"] = _metric(
                tr.counters.get("autodiff.conv2d.cols_bytes", 0.0) / 1e6, "MB")
        m[f"autodiff.{op}.gflop_per_s"] = _metric(gflop / busy if busy else 0.0, "GFLOP/s")
    for name in ("autodiff.backward", "autodiff.hvp_finite_diff"):
        m[f"{name}.calls"] = _metric(tr.calls(name), "count")
        m[f"{name}.self_s"] = _metric(tr.self_time(name), "s")
    m["layers.Model.forward.calls"] = _metric(tr.calls("layers.Model.forward"), "count")
    for name in ("forward", "free_vector", "values_from_free"):
        m[f"layers.Model.{name}.self_s"] = _metric(tr.self_time(f"layers.Model.{name}"), "s")
    m["training.train.calls"] = _metric(tr.calls("training.train"), "count")
    m["training.sgd_step.calls"] = _metric(tr.calls("training.sgd_step"), "count")
    m["training.sgd_step.self_s"] = _metric(tr.self_time("training.sgd_step"), "s")
    m["training.evaluate.s"] = _metric(tr.inclusive("training.evaluate"), "s")
    m["training.write_metrics_csv.s"] = _metric(tr.inclusive("training.write_metrics_csv"), "s")
    m["phase.train_step_s"] = _metric(tr.inclusive("training.train") - tr.phase_in_train_s, "s")
    probes = tr.calls("diagnostics.top_hessian_eigs")
    eigs = tr.counters.get("diagnostics.top_hessian_eigs.eigenvalues", 0.0)
    m["diagnostics.top_hessian_eigs.calls"] = _metric(probes, "count")
    m["diagnostics.top_hessian_eigs.s"] = _metric(tr.inclusive("diagnostics.top_hessian_eigs"), "s")
    m["diagnostics.top_hessian_eigs.grad_evals_per_probe"] = _metric(
        2.0 * tr.calls("autodiff.hvp_finite_diff") / probes if probes else 0.0, "count")
    m["diagnostics.top_hessian_eigs.converged_ratio"] = _metric(
        tr.counters.get("diagnostics.top_hessian_eigs.converged", 0.0) / eigs if eigs else 0.0,
        "ratio")
    m["diagnostics.activation_sparsity.s"] = _metric(
        tr.inclusive("diagnostics.activation_sparsity"), "s")
    m["diagnostics.avg_gradient_flow.self_s"] = _metric(
        tr.self_time("diagnostics.avg_gradient_flow"), "s")
    for name in ("rescale.learn_scales", "rescale.first_step_loss"):
        m[f"{name}.calls"] = _metric(tr.calls(name), "count")
        m[f"{name}.s"] = _metric(tr.inclusive(name), "s")
    for name in ("masks.random_mask", "masks.synflow_mask"):
        m[f"{name}.s"] = _metric(tr.inclusive(name), "s")
        m[f"{name}.self_s"] = _metric(tr.self_time(name), "s")
    m["checkpoint.save_model.calls"] = _metric(tr.calls("checkpoint.save_model"), "count")
    m["checkpoint.save_model.s"] = _metric(tr.inclusive("checkpoint.save_model"), "s")
    m["checkpoint.save_model.bytes"] = _metric(
        tr.counters.get("checkpoint.save_model.bytes", 0.0), "bytes")
    m["experiments.run_experiment.self_s"] = _metric(
        tr.self_time("experiments.run_experiment"), "s")
    m["datasets.make_synthetic.s"] = _metric(tr.inclusive("datasets.make_synthetic"), "s")
    m["trace.wall_s"] = _metric(wall, "s")
    m["trace.spans"] = _metric(tr.span_count(), "count")
    m["trace.overhead_ratio"] = _metric(wall / untraced_run_s - 1.0, "ratio")
    return m


def self_times(tr):
    """Self seconds per span name, an op's forward and backward together,
    largest first."""
    merged = {}
    for name, (_, _, self_s) in tr.stats.items():
        key = name.removesuffix(".bwd")
        merged[key] = merged.get(key, 0.0) + self_s
    return dict(sorted(merged.items(), key=lambda kv: -kv[1]))


def run_workload(args):
    from sparselab import experiments
    config, dataset_seed, train_seed = make_config(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(dict(config, out_dir=os.path.join(tmp, "runs")), fh)
        setup = setup_times(config_path)
        checker = RunChecker(config["model"], build_dataset(config))
        times, digests = [], []
        while len(times) < MIN_REPEATS or sum(times) + times[-1] <= args.seconds:
            out = os.path.join(tmp, f"run{len(times)}")
            t0 = time.perf_counter()
            code, results = experiments.run_experiment(config_path, out_dir=out)
            times.append(time.perf_counter() - t0)
            digests.append(checker.check(out, code, results))
            shutil.rmtree(out)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        trace = None
        if args.trace:
            out = os.path.join(tmp, "traced")
            with Tracer() as tr:
                t0 = time.perf_counter()
                experiments.run_experiment(config_path, out_dir=out)
                wall = time.perf_counter() - t0
            trace = {"tracer": tr, "wall": wall, "digest": csv_digest(out)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"config": config, "dataset_seed": dataset_seed, "train_seed": train_seed,
            "setup": setup, "times": times, "digests": digests, "rss_mb": rss_mb,
            "checks": checker.report(), "trace": trace}


def summarize(args, run):
    checks = run["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    samples = {"setup_s": run["setup"], "run_s": run["times"], "peak_rss_mb": [run["rss_mb"]],
               "cells_ok_ratio": [(attempted - failed) / attempted]}
    end_to_end = {name: _metric(statistics.median(values), UNITS[name])
                  for name, values in samples.items()}
    self_checks = {}
    layers = None
    if run["trace"]:
        tr, wall = run["trace"]["tracer"], run["trace"]["wall"]
        layers = layer_metrics(tr, wall, end_to_end["run_s"]["value"])
        self_checks = {
            "self_times_sum_to_wall": abs(tr.self_sum() - wall) <= 1e-3 + 1e-3 * wall,
            "originals_restored": tr.restored(),
            "traced_digest_matches": run["trace"]["digest"] == run["digests"][0],
        }
    correct = failed == 0 and all(self_checks.values())
    result = {
        "workload": args.workload, "seed": args.seed, "dataset_seed": run["dataset_seed"],
        "train_seed": run["train_seed"], "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "config": run["config"],
        "end_to_end": end_to_end, "samples": samples,
        "ops_failed_ratio": failed / attempted, "checks": checks,
        "csv_digest": run["digests"][0], "repeat_digests_agree": len(set(run["digests"])) == 1,
        "tracer_self_checks": self_checks, "per_layer": layers,
        "self_s_by_span": self_times(run["trace"]["tracer"]) if run["trace"] else None,
        "correct": correct,
    }
    return result, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": layers if args.trace else end_to_end}


def report(result):
    w = result["workload"]
    print(f"== {w}  seed {result['seed']} (dataset seed {result['dataset_seed']}, "
          f"train seed {result['train_seed']})")
    env = result["environment"]
    print(f"   env: {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, BLAS threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, commit {env['git_commit']}")
    for name, m in result["end_to_end"].items():
        values = result["samples"][name]
        print(f"   {name:<15} {m['value']:>12.6g} {m['unit']:<6} median of n={len(values)}, "
              f"max {max(values):.6g}")
    c = result["checks"]
    print(f"   ops_failed_ratio {result['ops_failed_ratio']:.6g} ({c['failed']}/{c['attempted']} cells)"
          f"; diverged {c['diverged']}, missing {c['missing_artifacts']}, non-finite CSV values "
          f"{c['nonfinite_csv_values']}, digest mismatches {c['digest_mismatches']}, gradient oracle "
          f"{c['oracle_checked'] - c['oracle_failed']}/{c['oracle_checked']} ok "
          f"(worst rel err {c['oracle_worst_rel_err']:.2e})")
    print(f"   csv digest {result['csv_digest']} (repeats agree: {result['repeat_digests_agree']})")
    if result["per_layer"]:
        layers = result["per_layer"]
        print(f"   tracer: wall {layers['trace.wall_s']['value']:.4g} s, overhead "
              f"{layers['trace.overhead_ratio']['value']:+.1%}, {layers['trace.spans']['value']} spans; "
              + ", ".join(f"{k} {v}" for k, v in result["tracer_self_checks"].items()))
        top = list(result["self_s_by_span"].items())[:5]
        print("   largest self times (ops fwd+bwd): "
              + ", ".join(f"{name} {s:.3g}s" for name, s in top))
        for name in ("diagnostics.top_hessian_eigs.calls", "diagnostics.top_hessian_eigs.converged_ratio",
                     "rescale.learn_scales.calls", "rescale.first_step_loss.calls",
                     "autodiff.conv2d.calls", "autodiff.conv2d.gflop_per_s"):
            print(f"   {name} {layers[name]['value']:.6g}")
    print(f"   correct: {result['correct']}")


def run_all(args):
    """Every workload in its own process, so each peak RSS is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 4)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_package()
    if args.workload == "all":
        run_all(args)
        return
    result, last_line = summarize(args, run_workload(args))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    print(json.dumps(last_line))


if __name__ == "__main__":
    main()
