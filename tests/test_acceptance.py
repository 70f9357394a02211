"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional criteria
(7, 8, 9) run the committed grids in claims/ through the grid driver, as
`sparselab run claims/<name>.json` does, and read their verdicts from the
CSVs it writes; they take minutes. Everything is seeded, so reruns are
bit-reproducible.
"""

import csv
import glob
import math
import os
import time

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import datasets, diagnostics, experiments, ghost, layers, masks, rescale, training
from sparselab.ghost import GhostConfig
from sparselab.rescale import LRsIConfig
from sparselab.training import TrainConfig, smooth_labels_batch

from helpers import finite_diff_hessian, first_step_loss


def _report(num, desc, ok):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def _rel(got, want):
    got, want = np.asarray(got).ravel(), np.asarray(want).ravel()
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)


SPIRALS = dict(n=1024, k_classes=2, noise=0.05, seed=0)
MLP_SPEC = {"preset": "mlp", "in_shape": [2], "classes": 2}
CLAIMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "claims")
# claims/<name>.json -> the sparsities and tweak labels that its criterion
# reads, each on random masks over seeds 0-4
CLAIM_GRIDS = {"activation_sparsity": ([0.9], ["baseline", "soft"]),          # criterion 7
               "accuracy": ([0.5, 0.95, 0.98], ["baseline", "toolkit"]),      # criterion 8
               "curvature": ([0.9], ["baseline", "toolkit"])}                 # criterion 9


def _spirals():
    return datasets.make_synthetic("spirals", **SPIRALS)


def _run_claim(name, out_dir):
    """Run claims/<name>.json through the grid driver into ``out_dir``; returns
    ``rows(sparsity, tweaks, seed, csv_name)``, the rows of one run's CSV."""
    experiments.run_experiment(os.path.join(CLAIMS, f"{name}.json"), out_dir=str(out_dir))

    def rows(s, tweaks, seed, csv_name):
        with open(out_dir / f"random_s{s:g}_{tweaks}" / f"seed{seed}" / csv_name,
                  newline="") as fh:
            return list(csv.DictReader(fh))
    return rows


def test_claim_files_hold_their_criteria_grids():
    """Each claims/*.json parses, and a criterion's grid has the seeds, tweak
    labels and sparsities that the criterion reads."""
    names = {os.path.basename(p)[:-5] for p in glob.glob(os.path.join(CLAIMS, "*.json"))}
    for name in sorted(names | set(CLAIM_GRIDS)):
        cfg = experiments.load_config(os.path.join(CLAIMS, f"{name}.json"))
        if name in CLAIM_GRIDS:
            assert (cfg.sparsities, cfg.tweaks) == CLAIM_GRIDS[name], name
            assert cfg.algos == ["random"] and cfg.seeds == list(range(5)), name


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    """Every differentiable op and three full models vs central differences,
    rel err <= 1e-6, under one minute."""
    t_start = time.monotonic()
    tol = 1e-6
    worst = 0.0

    def gradcheck(build, flat0):
        nonlocal worst
        out0, _ = build(flat0)
        proj = np.random.default_rng(7).normal(size=out0.data.shape)

        def f(flat):
            return float((build(flat)[0].data * proj).sum())

        out, leaves = build(flat0)
        ad.backward(out, seed=proj)
        got = np.concatenate([l.grad.ravel() for l in leaves])
        want = ad.finite_diff_grad(f, flat0, h=1e-5)
        worst = max(worst, _rel(got, want))

    rng = np.random.default_rng(0)
    x0 = rng.normal(size=12, scale=2.0)
    x0[np.abs(x0) < 1e-3] += 0.1

    def _unary(op, flat):
        leaf = ad.Tensor(flat.reshape(3, 4), requires_grad=True)
        return op(leaf), [leaf]

    for op in (ad.relu, lambda t: ad.pswish(t, 1.7), lambda t: ad.pswish(t, 0.0), ad.mish):
        gradcheck(lambda flat, op=op: _unary(op, flat), x0)

    def mat_build(flat):
        a = ad.Tensor(flat[:6].reshape(2, 3), requires_grad=True)
        b = ad.Tensor(flat[6:12].reshape(3, 2), requires_grad=True)
        c = ad.Tensor(flat[12:16].reshape(2, 2), requires_grad=True)
        return ad.mul(ad.add(ad.matmul(a, b), c), c), [a, b, c]

    gradcheck(mat_build, rng.normal(size=16))

    for stride in (1, 2):
        nx, nw = 2 * 3 * 4 * 4, 2 * 3 * 3 * 3

        def conv_build(flat, stride=stride):
            x = ad.Tensor(flat[:nx].reshape(2, 3, 4, 4), requires_grad=True)
            w = ad.Tensor(flat[nx:].reshape(2, 3, 3, 3), requires_grad=True)
            return ad.conv2d(x, w, stride=stride), [x, w]

        gradcheck(conv_build, rng.normal(size=nx + nw, scale=0.7))

    def bn_build(flat):
        x = ad.Tensor(flat[:18].reshape(6, 3), requires_grad=True)
        g = ad.Tensor(flat[18:21], requires_grad=True)
        b = ad.Tensor(flat[21:24], requires_grad=True)
        out, _, _ = ad.batchnorm_train(x, g, b)
        return out, [x, g, b]

    gradcheck(bn_build, np.concatenate([rng.normal(size=18), rng.uniform(0.5, 1.5, 3),
                                        rng.normal(size=3)]))

    def pool_build(flat):
        x = ad.Tensor(flat.reshape(2, 3, 4, 4), requires_grad=True)
        return ad.reshape(ad.global_avg_pool(x), (3, 2)), [x]

    gradcheck(pool_build, rng.normal(size=96))

    y = np.zeros((5, 4))
    y[np.arange(5), rng.integers(0, 4, 5)] = 1.0

    def ce_build(flat):
        z = ad.Tensor(flat.reshape(5, 4), requires_grad=True)
        return ad.softmax_cross_entropy(z, y), [z]

    gradcheck(ce_build, rng.normal(size=20))

    # three full models over every free parameter
    def model_check(model, x, targets, activation=None, training=False):
        nonlocal worst
        loss_fn, grad_fn, theta0 = diagnostics.probe_functions(
            model, x, targets, activation=activation, training=training)
        worst = max(worst, _rel(grad_fn(theta0), ad.finite_diff_grad(loss_fn, theta0)))

    mrng = np.random.default_rng(100)
    mlp = layers.build_model({"preset": "mlp", "in_shape": [3], "hidden": [6, 5],
                              "classes": 2}, seed=0)   # seed 0: relu preacts clear of 0
    xm = mrng.normal(size=(8, 3))
    tm = smooth_labels_batch(mrng.integers(0, 2, 8), 2, 0.0)
    model_check(mlp, xm, tm)                            # relu
    model_check(mlp, xm, tm, activation="pswish")       # soft neurons
    conv = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 6, 6],
                               "channels": [2, 3, 4], "classes": 2}, seed=0)
    xc = mrng.normal(size=(4, 1, 6, 6))
    tc = smooth_labels_batch(mrng.integers(0, 2, 4), 2, 0.0)
    model_check(conv, xc, tc, activation="mish", training=True)

    elapsed = time.monotonic() - t_start
    _report(1, f"autodiff vs finite differences, worst rel err {worst:.2e}, "
               f"{elapsed:.1f}s", worst <= tol and elapsed < 60.0)


# ---------------------------------------------------------------------------
# 2. hvp and spectrum oracles
# ---------------------------------------------------------------------------

def test_criterion_02_hvp_and_spectrum_oracles():
    """Hvp and power-iteration eigenvalues vs a dense double-difference
    Hessian on <= 20-parameter models, rel err <= 1e-3, under one minute."""
    t_start = time.monotonic()
    worst = 0.0

    rng = np.random.default_rng(1)
    m = rng.normal(size=(16, 16))
    a = (m + m.T) / 2
    theta_q = rng.normal(size=16)
    for k in range(3):
        v = np.random.default_rng(10 + k).normal(size=16)
        worst = max(worst, _rel(ad.hvp_finite_diff(lambda t: a @ t, theta_q, v), a @ v))
    rec_q, _ = diagnostics.top_hessian_eigs(lambda t: a @ t, theta_q, k=3, iters=500,
                                            tol=1e-10, seed=2)
    want_q = np.sort(np.linalg.eigvalsh(a))[::-1][:3]
    worst = max(worst, float(np.max(np.abs(np.array(rec_q.eigenvalues) - want_q)
                                    / np.abs(want_q))))

    model = layers.build_model({"layers": [{"kind": "dense", "width": 2},
                                           {"kind": "activation", "activation": "pswish"},
                                           {"kind": "dense", "width": 2}],
                                "in_shape": [2], "classes": 2}, seed=3)
    x = np.random.default_rng(3).normal(size=(10, 2))
    t = smooth_labels_batch(np.random.default_rng(4).integers(0, 2, 10), 2, 0.0)
    loss_fn, grad_fn, theta0 = diagnostics.probe_functions(model, x, t)
    assert theta0.size <= 20
    dense = finite_diff_hessian(loss_fn, theta0, h=1e-4)
    for k in range(3):
        v = np.random.default_rng(20 + k).normal(size=theta0.size)
        worst = max(worst, _rel(ad.hvp_finite_diff(grad_fn, theta0, v), dense @ v))
    rec, _ = diagnostics.top_hessian_eigs(grad_fn, theta0, k=2, iters=300, tol=1e-8, seed=0)
    want = np.sort(np.linalg.eigvalsh(dense))[::-1][:2]
    worst = max(worst, float(np.max(np.abs(np.array(rec.eigenvalues) - want) / np.abs(want))))

    elapsed = time.monotonic() - t_start
    _report(2, f"hvp/spectrum vs dense Hessian, worst rel err {worst:.2e}, "
               f"{elapsed:.1f}s", worst <= 1e-3 and elapsed < 60.0)


# ---------------------------------------------------------------------------
# 3. mask semantics after a full desk run
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_03_mask_semantics(monkeypatch):
    """60-epoch run at s=0.95: masked weights exactly 0 and their bytes
    never changed, momentum held over the free coordinates only; every
    generator hits the target sparsity within one weight."""
    ds = _spirals()
    s = 0.95
    model = layers.build_model(MLP_SPEC, seed=0)
    mask = masks.random_mask(model, s, seed=0)
    masked = masks.apply_mask(model.clone(), mask)     # the weights train() starts from
    layout = layers.ParamLayout(masked.blocks.values())
    dead = np.ones(layout.size, dtype=bool)
    dead[layout.free_index] = False

    def dead_bytes(m):
        return layout.flatten({n: b.value for n, b in m.blocks.items()})[dead].tobytes()

    left, real_step, steps = dead_bytes(masked), training.sgd_step, []

    def step(theta, grad, velocity, *args):    # the momentum lives in train()
        theta, velocity = real_step(theta, grad, velocity, *args)
        steps.append((theta.size, velocity.size, dead_bytes(model) == left))
        return theta, velocity

    monkeypatch.setattr(training, "sgd_step", step)
    toolkit = TrainConfig(epochs=60, batch_size=64, lr0=0.1, milestones=(30, 45), ls_alpha=0.1,
                          seed=0, ghost=GhostConfig(), lrsi=LRsIConfig(iters=12))
    history = training.train(model, ds, toolkit, mask=mask).history
    monkeypatch.undo()
    assert len(history) == 60 and not history[-1].diverged
    max_w = max(float(np.abs(b.value[b.mask == 0]).max()) for b in model.maskable_blocks())
    n_free = layout.free_index.size
    state_ok = (len(steps) > 0 and all(t == v == n_free and same for t, v, same in steps)
                and dead_bytes(model) == left)

    probe = layers.build_model(MLP_SPEC, seed=0)
    total = sum(b.value.size for b in probe.maskable_blocks())
    batch = (ds.x_train[:128], ds.y_train[:128])
    imp_cfg = TrainConfig(epochs=2, batch_size=64, lr0=0.05, milestones=(), seed=0)
    gens = {
        "random": masks.random_mask(probe, s, seed=1),
        "snip": masks.snip_mask(probe, batch, s),
        "grasp": masks.grasp_mask(probe, batch, s),
        "synflow": masks.synflow_mask(probe, s),
        "lth": masks.imp_lth(probe, ds, 2, 1.0 - (1.0 - s) ** 0.5, imp_cfg),
    }
    counts_ok = all(abs(m.achieved_sparsity() - s) * total <= 1.0 for m in gens.values())
    _report(3, f"masked weights exactly 0 (max {max_w:g}) and their bytes unchanged over "
               f"{len(steps)} steps, velocity over the {n_free} free coordinates only; "
               f"five generators within one weight",
            max_w == 0.0 and state_ok and counts_ok)


# ---------------------------------------------------------------------------
# 4. ghost rehabilitation
# ---------------------------------------------------------------------------

def test_criterion_04_ghost_rehabilitation():
    """Default policy: post-milestone forward is bit-identical to a
    never-ghosted model with the same weights; keep_forever is not."""
    ds = datasets.make_synthetic("spirals", 128, 2, noise=0.1, seed=4)
    cfg = TrainConfig(epochs=6, batch_size=32, lr0=0.1, milestones=(3, 5), seed=4,
                      ghost=GhostConfig())
    model = layers.build_model(MLP_SPEC, seed=4)
    history = training.train(model, ds, cfg).history
    post = history[3]
    sched_ok = post.alpha == 0.0 and post.beta == math.inf

    fresh = layers.build_model(MLP_SPEC, seed=99)
    fresh.load_state_dict(model.state_dict())
    x = ds.x_test
    bits_ok = (fresh.forward(x).logits.data.tobytes()
               == model.forward(x).logits.data.tobytes())
    loss_plain, acc_plain = training.evaluate(model, ds.x_test, ds.y_test, 32)
    eval_ok = (loss_plain == history[-1].test_loss and acc_plain == history[-1].test_acc)

    keep = layers.build_model(MLP_SPEC, seed=4)
    cfg_keep = TrainConfig(epochs=6, batch_size=32, lr0=0.1, milestones=(3, 5), seed=4,
                           ghost=GhostConfig(policy="keep_forever"))
    hist_keep = training.train(keep, ds, cfg_keep).history
    soft = keep.forward(x, activation="pswish", beta=1.0, alpha=1.0).logits.data
    plain = keep.forward(x).logits.data
    contrast_ok = soft.tobytes() != plain.tobytes() and hist_keep[-1].alpha == 1.0

    _report(4, "post-milestone forward bit-identical to never-ghosted model; "
               "keep_forever differs", sched_ok and bits_ok and eval_ok and contrast_ok)


# ---------------------------------------------------------------------------
# 5. batchnorm scale absorption
# ---------------------------------------------------------------------------

def test_criterion_05_bn_scale_absorption():
    """Scaling any BN-preceded conv block's weights+bias by c in {0.1,3,10}
    moves train-mode outputs by <= 1e-9 max-abs."""
    model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                "classes": 3}, seed=5)
    x = np.random.default_rng(5).normal(size=(8, 1, 8, 8))
    base = model.forward(x, training=True).logits.data
    bn_preceded = [n[:-2] for n in model.blocks if n.endswith(".w") and "conv" in n]
    worst = 0.0
    for group in bn_preceded:
        for c in (0.1, 3.0, 10.0):
            scaled = model.clone()
            scaled.blocks[f"{group}.w"].value *= c
            scaled.blocks[f"{group}.b"].value *= c
            got = scaled.forward(x, training=True).logits.data
            worst = max(worst, float(np.abs(got - base).max()))
    _report(5, f"scale absorption over {len(bn_preceded)} conv blocks x 3 factors, "
               f"worst dev {worst:.2e}", worst <= 1e-9)


# ---------------------------------------------------------------------------
# 6. learned rescaling contract
# ---------------------------------------------------------------------------

def test_criterion_06_lrsi_contract():
    """Keep-best: learned scales never raise the first-step loss; strictly
    lower on the (batchnorm-free) mlp preset in >= 4 of 5 seeds."""
    ds = _spirals()
    x = ds.x_train[:128]
    t = smooth_labels_batch(ds.y_train[:128], 2, 0.0)
    keep_best_ok = True
    strict = 0
    for seed in range(5):
        model = layers.build_model(MLP_SPEC, seed=seed)
        masks.apply_mask(model, masks.random_mask(model, 0.95, seed=seed))
        out = rescale.learn_scales(model, (x, t), lr_train=0.1,
                                   config=LRsIConfig(iters=12))
        final = first_step_loss(model, (x, t), 0.1,
                                values=rescale._scaled_values(model, out.scales))
        keep_best_ok &= final <= out.trace[0]
        strict += final < out.trace[0]
    _report(6, f"keep-best on all seeds; strictly lower on {strict}/5 seeds",
            keep_best_ok and strict >= 4)


# ---------------------------------------------------------------------------
# 7. activation-sparsity direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_activation_sparsity_direction(tmp_path):
    """resnet-tiny at s=0.9 (random mask, eps=1e-6): mid-training relu
    activation sparsity >= 10x the swish-trained counterpart, >= 4/5 seeds
    (claims/activation_sparsity.json)."""
    rows = _run_claim("activation_sparsity", tmp_path)

    def mid_sparsity(tweaks, seed):
        metrics = rows(0.9, tweaks, seed, "metrics.csv")
        row = metrics[len(metrics) // 2]
        return float(np.mean([float(v) for k, v in row.items() if k.startswith("act_sparsity_L")]))

    ratios = [mid_sparsity("baseline", seed) / max(mid_sparsity("soft", seed), 1e-300)
              for seed in range(5)]
    wins = sum(ratio >= 10.0 for ratio in ratios)
    _report(7, f"relu/swish activation-sparsity ratios {[f'{r:.3g}' for r in ratios]}, "
               f"{wins}/5 seeds >= 10x", wins >= 4)


# ---------------------------------------------------------------------------
# 8. accuracy direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_accuracy_direction(tmp_path):
    """spirals + mlp preset: mean test accuracy with the full toolkit >=
    baseline at s=0.95, and the toolkit's gap at s=0.98 >= its gap at s=0.5
    (claims/accuracy.json). A diverged run's last test_acc is NaN."""
    rows = _run_claim("accuracy", tmp_path)

    def mean_final_acc(s, tweaks):
        return float(np.mean([float(rows(s, tweaks, seed, "metrics.csv")[-1]["test_acc"])
                              for seed in range(5)]))

    means = {s: (mean_final_acc(s, "baseline"), mean_final_acc(s, "toolkit"))
             for s in (0.5, 0.95, 0.98)}
    gaps = {s: full - base for s, (base, full) in means.items()}
    _report(8, f"toolkit-vs-baseline mean gaps: s=0.5 {gaps[0.5]:+.4f}, "
               f"s=0.95 {gaps[0.95]:+.4f}, s=0.98 {gaps[0.98]:+.4f}",
            means[0.95][1] >= means[0.95][0] and gaps[0.98] >= gaps[0.5])


# ---------------------------------------------------------------------------
# 9. curvature direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_curvature_direction(tmp_path):
    """Max top Hessian eigenvalue over the trajectory: toolkit <= baseline
    in >= 3 of 5 seeds at s=0.9 on resnet-tiny (claims/curvature.json)."""
    rows = _run_claim("curvature", tmp_path)

    def max_eig(tweaks, seed):
        return max(float(r["lambda_1"]) for r in rows(0.9, tweaks, seed, "spectrum.csv"))

    pairs = [(max_eig("baseline", seed), max_eig("toolkit", seed)) for seed in range(5)]
    wins = sum(t <= b for b, t in pairs)
    _report(9, f"max-eig pairs (baseline, toolkit) {[(f'{b:.0f}', f'{t:.0f}') for b, t in pairs]}, "
               f"toolkit <= baseline in {wins}/5 seeds", wins >= 3)


# ---------------------------------------------------------------------------
# 10. synflow anti-collapse
# ---------------------------------------------------------------------------

def test_criterion_10_synflow_anti_collapse():
    """6-layer thin mlp at s=0.99: synflow keeps every layer alive on all 5
    seeds; random masking collapses a layer in >= 1 seed."""
    spec = {"layers": [{"kind": "dense", "width": 16}] * 5 + [{"kind": "dense", "width": 2}],
            "in_shape": [2], "classes": 2}
    syn_alive = 0
    rand_collapsed = 0
    for seed in range(5):
        model = layers.build_model(spec, seed=seed)
        syn = masks.synflow_mask(model, 0.99)
        syn_alive += all(c >= 1 for c in syn.per_layer_survivors().values())
        rand = masks.random_mask(model, 0.99, seed=seed)
        rand_collapsed += bool(masks.layer_collapse_check(rand))
    _report(10, f"synflow alive on {syn_alive}/5 seeds; random collapsed on "
                f"{rand_collapsed}/5 seeds", syn_alive == 5 and rand_collapsed >= 1)


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    """`run` twice with the same config produces byte-identical CSVs."""
    import json
    cfg = {
        "model": {"preset": "mlp", "in_shape": [2], "hidden": [16, 16, 16], "classes": 2},
        "dataset": {"name": "spirals", "n": 128, "classes": 2, "noise": 0.1, "seed": 0},
        "mask": {"algo": ["random", "synflow"], "sparsity": 0.9},
        "train": {"epochs": 3, "batch": 32, "lr0": 0.1, "milestones": [2],
                  "ls_alpha": 0.1, "seed": [0, 1]},
        "ghost": {"policy": "ghost"},
        "probes": {"enabled": True, "every": 2, "eig_count": 1, "power_iters": 10,
                   "probe_batch": 64},
        "tweaks": ["baseline", "toolkit"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    experiments.run_experiment(str(path), out_dir=str(tmp_path / "a"))
    experiments.run_experiment(str(path), out_dir=str(tmp_path / "b"))
    compared = 0
    identical = True
    for root, _dirs, files in os.walk(tmp_path / "a"):
        for f in files:
            if not f.endswith(".csv"):
                continue
            rel = os.path.relpath(os.path.join(root, f), tmp_path / "a")
            a = open(os.path.join(tmp_path, "a", rel), "rb").read()
            b = open(os.path.join(tmp_path, "b", rel), "rb").read()
            identical &= a == b
            compared += 1
    _report(11, f"{compared} CSVs byte-identical across reruns",
            identical and compared >= 9)


# ---------------------------------------------------------------------------
# 12. schedule exactness
# ---------------------------------------------------------------------------

def test_criterion_12_schedule_exactness():
    """lr_at, beta_at, alpha_at match their closed forms exactly at
    epochs {0, mid, milestone-1, milestone, end}."""
    ok = True
    # lr: division by 10 at each milestone, paper protocol values
    ms = (90, 135)
    for epoch, want in ((0, 0.1), (45, 0.1), (89, 0.1), (90, 0.1 * 0.1),
                        (134, 0.1 * 0.1), (135, 0.1 * 0.1 ** 2), (179, 0.1 * 0.1 ** 2)):
        ok &= training.lr_at(epoch, 0.1, ms) == want
    # beta/alpha: t_end=32 makes every fraction exactly representable
    t_end = 32
    for epoch in (0, 8, 16, 31):
        frac = epoch / t_end
        ok &= ghost.beta_at(epoch, t_end, 1.0, 10.0) == 1.0 + 9.0 * frac
        ok &= ghost.alpha_at(epoch, t_end) == 1.0 - frac
    ok &= ghost.beta_at(t_end, t_end) == math.inf
    ok &= ghost.alpha_at(t_end, t_end) == 0.0
    ok &= ghost.alpha_at(10 * t_end, t_end) == 0.0
    _report(12, "lr/beta/alpha schedules equal closed forms at boundary epochs", ok)
