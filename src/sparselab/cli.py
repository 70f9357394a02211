"""Command line entry points.

Verbs:
    run <config.json>                      execute an experiment grid
    mask <config.json> --algo A --sparsity S --out PATH
    probe <checkpoint> --config C [--batch SPEC] [--spectrum] [--scan] [--landscape]
    compare <summary.csv> <summary.csv...> [--out PATH]
    selftest                               run the oracle battery

Exit codes: 0 success, 1 run failure (a diverged run, a missing checkpoint,
a non-finite value outside training or an all-zero saliency), 2 config
error (a missing config file included), 3 an uncaught exception, printed
with its traceback. Every verb runs with numpy's floating-point warnings
off, as ``train`` does, so a non-finite value ends it with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from sparselab import checkpoint, diagnostics, experiments, masks, training
from sparselab.autodiff import NumericError
from sparselab.ghost import ConfigError
from sparselab.layers import build_model
from sparselab.training import smooth_labels_batch


def _cmd_run(args):
    cfg = experiments.load_config(args.config)
    out_dir = args.out or cfg.out_dir
    code, results = experiments.run_experiment(cfg, out_dir=out_dir)
    for r in results:
        status = (f"DIVERGED ({r.history[-1].error})" if r.diverged
                  else f"acc={r.final_test_acc:.4f}")
        print(f"{r.algo} s={r.sparsity:g} {r.tweaks} seed={r.seed}: {status}")
    print(f"summary written to {os.path.join(out_dir, 'summary.csv')}")
    return code


def _cmd_mask(args):
    cfg = experiments.load_config(args.config)
    seed = cfg.seeds[0]
    model = build_model(cfg.raw["model"], seed=seed)
    mask = experiments.generate_mask(args.algo, model, cfg.dataset, args.sparsity, seed, cfg)
    masks.apply_mask(model, mask)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    checkpoint.save_model(args.out, model)
    print(f"{args.algo} mask at s={args.sparsity:g}: {mask.survivors()}/{mask.total()} "
          f"weights kept (achieved {mask.achieved_sparsity():.6f})")
    if collapsed := masks.layer_collapse_check(mask):
        print(f"warning: collapsed layers {collapsed}")
    print(f"checkpoint written to {args.out}")
    return 0


def _parse_batch_spec(spec, dataset, probe_batch):
    split, _, count = (spec or "test").partition(":")
    if split not in ("train", "test") or count and not (count.isdecimal() and int(count) > 0):
        raise ConfigError(f"--batch must be train[:n] or test[:n] with n >= 1, got {spec!r}")
    x = dataset.x_train if split == "train" else dataset.x_test
    y = dataset.y_train if split == "train" else dataset.y_test
    n = min(int(count) if count else probe_batch, len(x))
    return x[:n], y[:n]


def _cmd_probe(args):
    cfg = experiments.load_config(args.config)
    model = build_model(cfg.raw["model"], seed=cfg.seeds[0])
    checkpoint.load_into_model(args.checkpoint, model)
    pc = cfg.train["baseline"].probes
    x, y = _parse_batch_spec(args.batch, cfg.dataset, pc.probe_batch)
    targets = smooth_labels_batch(y, model.n_classes, 0.0)
    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)
    wrote = []

    spectrum = args.spectrum or not (args.scan or args.landscape)
    if spectrum or args.scan:
        k = pc.eig_count if spectrum else 1
        _, grad_fn, theta0 = diagnostics.probe_functions(model, x, targets)
        rec, vecs = diagnostics.top_hessian_eigs(grad_fn, theta0, k=k, iters=pc.power_iters,
                                                 tol=pc.tol, seed=0)
        if spectrum:
            path = os.path.join(out_dir, "spectrum.csv")
            experiments._write_spectrum_csv(path, k, [(None, rec)])
            wrote.append(path)
        if args.scan:
            losses = diagnostics.eigvec_perturb_scan(model, (x, targets), vecs[0],
                                                     diagnostics.SCAN_DISTANCES)
            path = os.path.join(out_dir, "scan.csv")
            training.write_csv(path, ["t", "loss"], zip(diagnostics.SCAN_DISTANCES, losses))
            wrote.append(path)

    if args.landscape:
        out = diagnostics.landscape_slice(model, (x, targets), diagnostics.LANDSCAPE_GRID,
                                          diagnostics.LANDSCAPE_SPAN, seed=0)
        path = os.path.join(out_dir, "landscape.csv")
        training.write_csv(path, ["a", "b", "loss"],
                           ((a, b, out.losses[i, j]) for i, a in enumerate(out.a_values)
                            for j, b in enumerate(out.b_values)))
        wrote.append(path)
    for p in wrote:
        print(f"wrote {p}")
    return 0


def _cmd_compare(args):
    rows = experiments.compare_runs(args.summaries, out_path=args.out)
    for r in rows:
        print(f"{r['mask_algo']} s={r['sparsity']} {r['tweaks']} vs {r['summary']}: "
              f"delta={r['delta']:+.4f} (±{r['delta_std']:.4f})")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_selftest(_args):
    from sparselab.selftest import run_selftest
    return run_selftest()


def build_parser():
    parser = argparse.ArgumentParser(prog="sparselab",
                                     description="sparse training laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="execute an experiment grid from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the config's out_dir")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("mask", help="generate a sparse mask and save a checkpoint")
    p.add_argument("config")
    p.add_argument("--algo", required=True, choices=experiments.MASK_ALGOS)
    p.add_argument("--sparsity", required=True, type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mask)

    p = sub.add_parser("probe", help="run diagnostics on a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--batch", default="test", help="train[:n] or test[:n]")
    p.add_argument("--spectrum", action="store_true")
    p.add_argument("--scan", action="store_true")
    p.add_argument("--landscape", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("compare", help="delta table between summary CSVs")
    p.add_argument("summaries", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("selftest", help="run the oracle verification battery")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # as in train, the finite checks decide, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader (e.g. `| head`) closed stdout; point it at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, NumericError) as exc:    # CheckpointError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:       # a fault in the program, not in its input: keep the traceback
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
