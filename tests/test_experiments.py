"""Config validation, grid execution, summaries, deltas, CLI dispatch."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselab
from sparselab import cli, datasets, diagnostics, experiments
from sparselab.ghost import ConfigError


def _config(tmp_path, **overrides):
    cfg = {
        "model": {"preset": "mlp", "in_shape": [2], "hidden": [8, 8, 8], "classes": 2},
        "dataset": {"name": "spirals", "n": 80, "classes": 2, "noise": 0.2, "seed": 0},
        "mask": {"algo": "random", "sparsity": 0.5},
        "train": {"epochs": 2, "batch": 16, "lr0": 0.1, "milestones": [1], "ls_alpha": 0.1,
                  "seed": [0]},
        "tweaks": ["baseline"],
        "out_dir": str(tmp_path / "runs"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        path = _config(tmp_path, epochs=3)
        with pytest.raises(ConfigError, match="epochs"):
            experiments.load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = _config(tmp_path, train={"epochs": 2, "batch": 16, "milestones": [],
                                        "learning_rate": 0.1})
        with pytest.raises(ConfigError, match="learning_rate"):
            experiments.load_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {}, "dataset": {}, "train": {}}))
        with pytest.raises(ConfigError, match="mask"):
            experiments.load_config(str(path))

    def test_unknown_algo(self, tmp_path):
        path = _config(tmp_path, mask={"algo": "fisher", "sparsity": 0.5})
        with pytest.raises(ConfigError, match="fisher"):
            experiments.load_config(str(path))

    def test_tweak_tokens(self):
        assert experiments.parse_tweaks("baseline") == set()
        assert experiments.parse_tweaks("toolkit") == {"soft", "skips", "lrsi", "ls"}
        assert experiments.parse_tweaks("skips+ls") == {"skips", "ls"}
        with pytest.raises(ConfigError):
            experiments.parse_tweaks("skips+warp")

    def test_tweak_subset_isolation(self, tmp_path):
        """'skips' alone must disable soft neurons, rescaling, and smoothing."""
        cfg = experiments.load_config(_config(tmp_path, tweaks=["skips", "toolkit"]))
        tc = cfg.train["skips"]
        assert tc.ghost is not None
        assert tc.ghost.skip_gates and not tc.ghost.soft_neurons
        assert tc.lrsi is None
        assert tc.ls_alpha == 0.0
        tc_full = cfg.train["toolkit"]
        assert tc_full.ghost.soft_neurons and tc_full.ghost.skip_gates
        assert tc_full.lrsi is not None and tc_full.ls_alpha == 0.1


def test_readme_example_config_validates():
    """The config block in README.md passes the schema as written."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8").read()
    block = readme.split("A config is strict UTF-8 JSON")[1].split("```json\n")[1].split("```")[0]
    cfg = experiments.validate_config(json.loads(block))
    assert cfg.algos == ["random", "synflow"] and cfg.tweaks == ["baseline", "toolkit"]


class TestEveryTweakValidated:
    """A bad value behind any tweak label, a probe setting that would fail
    mid-run, or a grid axis value that repeats a run directory fails
    before the first cell runs."""

    @pytest.mark.parametrize("overrides", [
        {"ghost": {"policy": "bogus"}},
        {"ghost": {"policy": "ghost_at_second_decay"}},
        {"lrsi": {"bounds": [5, 1]}},
        {"lrsi": {"enabled": False}},
        {"probes": {"power_iters": 0}},
        {"probes": {"probe_batch": 0}},
        {"probes": {"tol": 0}},
        {"mask": {"algo": ["random", "random"], "sparsity": 0.5}},
        {"mask": {"algo": "random", "sparsity": [0.9, 0.9]}},
        {"mask": {"algo": "random", "sparsity": [0.9, 0.9000001]}},
        {"tweaks": ["baseline", "baseline"]},
        {"train": {"epochs": 2, "batch": 16, "lr0": 0.1, "milestones": [1], "seed": [0, 0]}},
        {"mask": {"algo": "random", "sparsity": 0.5, "scope": "bogus"}},
        {"mask": {"algo": "synflow", "sparsity": 0.5, "synflow_iterations": 0}},
        {"mask": {"algo": "lth", "sparsity": 0.5, "imp_rounds": 0}},
        {"model": {"preset": "bogus", "in_shape": [2], "classes": 2}},
        {"model": {"preset": "mlp", "in_shape": [3], "hidden": [8], "classes": 2}},
        {"model": {"preset": "mlp", "in_shape": [2], "hidden": [8], "classes": 2},
         "dataset": {"name": "spirals", "n": 80, "classes": 3}},
        {"dataset": {"name": "bogus", "n": 80, "classes": 2}},
        {"probes": {"act_eps": math.nan}},
        {"train": {"epochs": 2, "batch": 16, "lr0": math.nan, "milestones": [1], "seed": [0]}},
        {"ghost": {"beta0": math.nan}},
        {"ghost": {"beta_max": math.nan}},
        {"ghost": {"beta_max": -5.0}},
        {"lrsi": {"step": math.nan}},
        {"lrsi": {"iters": -2}},
        {"probes": {"landscape_span": math.nan}},
        {"probes": {"landscape_span": math.inf}},
        {"probes": {"every": "5"}},
        {"train": {"epochs": 2, "batch": 16, "milestones": [1], "seed": [[0]]}},
        {"mask": {"algo": "random", "sparsity": [[0.5]]}},
        {"lrsi": {"iters": 2.5}},
        {"probes": {"eig_count": 1.5}},
        {"probes": {"enabled": "false"}},
        {"train": {"epochs": 2.5, "batch": 16, "milestones": [1], "seed": [0]}},
        {"train": {"epochs": 2, "batch": True, "milestones": [1], "seed": [0]}},
        {"dataset": {"name": "spirals", "limit": 5}},
        {"out_dir": 5},
        {"train": {"epochs": 2, "batch": 16, "milestones": [1], "seed": []}},
        {"train": {"epochs": 2, "batch": 16, "milestones": [1.5], "seed": [0]}},
        {"dataset": {"name": "teacher", "n": 80, "classes": 2, "noise": 0.7,
                     "input_shape": [2]}},
        {"dataset": {"name": "spirals", "n": 80, "classes": 2, "input_shape": [2]}},
        {"model": {"preset": "mlp", "in_shape": [2], "channels": [4], "classes": 2}},
    ], ids=["ghost-policy", "ghost-second-decay-one-milestone", "lrsi-bounds", "lrsi-enabled",
            "probe-power-iters", "probe-batch", "probe-tol", "algo-repeat", "sparsity-repeat",
            "sparsity-same-dir", "tweak-repeat", "seed-repeat", "mask-scope",
            "synflow-iterations", "imp-rounds", "model-preset", "in-shape-mismatch",
            "fewer-model-classes", "dataset-name", "nan-act-eps", "nan-lr0", "nan-beta0",
            "nan-beta-max", "negative-beta-max", "nan-lrsi-step", "lrsi-iters-negative",
            "nan-landscape-span", "inf-landscape-span", "wrong-type", "nested-seed", "nested-sparsity",
            "float-lrsi-iters", "float-eig-count", "string-enabled", "float-epochs",
            "bool-batch", "idx-key-on-spirals", "int-out-dir", "empty-seed-axis",
            "float-milestone", "noise-on-teacher", "input-shape-on-spirals",
            "channels-on-mlp"])
    def test_exit_2_and_no_cell_written(self, tmp_path, overrides):
        path = _config(tmp_path, **{"tweaks": ["baseline", "toolkit"], **overrides})
        with pytest.raises(ConfigError):
            experiments.load_config(path)
        assert cli.main(["run", path]) == 2
        assert not (tmp_path / "runs").exists()


class TestSchema:
    def test_sections_name_the_config_fields(self):
        """Each dataclass-backed section accepts exactly its dataclass's
        fields; the ghost tweak tokens set soft_neurons and skip_gates."""
        names = lambda cls: {f.name for f in dataclasses.fields(cls)}
        assert experiments._SCHEMA["lrsi"] == names(sparselab.LRsIConfig)
        assert experiments._SCHEMA["probes"] == names(sparselab.ProbeConfig)
        assert experiments._SCHEMA["ghost"] == (names(sparselab.GhostConfig)
                                               - {"soft_neurons", "skip_gates"})

    def test_unset_train_keys_take_train_config_defaults(self, tmp_path):
        cfg = experiments.load_config(_config(tmp_path, train={"seed": 3}))
        want = sparselab.TrainConfig(seed=3)
        for f in dataclasses.fields(sparselab.TrainConfig):
            assert getattr(cfg.baseline, f.name) == getattr(want, f.name), f.name

    def test_validated_dataset_is_the_one_run_uses(self, tmp_path):
        """run, mask and probe reuse cfg.dataset: make_synthetic's, from the keys given."""
        cfg = experiments.load_config(_config(tmp_path))
        want = datasets.make_synthetic("spirals", 80, 2, noise=0.2, seed=0)
        np.testing.assert_array_equal(cfg.dataset.x_train, want.x_train)
        np.testing.assert_array_equal(cfg.dataset.y_test, want.y_test)

    def test_unset_dataset_and_mask_keys_take_their_owners_defaults(self, tmp_path):
        cfg = experiments.load_config(_config(tmp_path, dataset={"n": 80},
                                              mask={"algo": "synflow"}))
        want = datasets.make_synthetic("spirals", 80)
        np.testing.assert_array_equal(cfg.dataset.x_train, want.x_train)
        assert cfg.mask_options == {} and cfg.sparsities == [0.9]

    # (section, key) -> a value of the wrong type for that key; every key of
    # every section's table has one
    WRONG_TYPED = {
        ("model", "preset"): 5, ("model", "layers"): [5], ("model", "in_shape"): [2.0],
        ("model", "classes"): 2.0, ("model", "hidden"): [8, True], ("model", "channels"): "8",
        ("dataset", "name"): ["spirals"], ("dataset", "n"): 80.0, ("dataset", "classes"): 2.0,
        ("dataset", "noise"): True, ("dataset", "seed"): 0.5, ("dataset", "input_shape"): [2.0],
        ("dataset", "path"): ["a.idx"], ("dataset", "labels_path"): 5,
        ("dataset", "limit"): 2.5,
        ("mask", "algo"): 5, ("mask", "sparsity"): "0.5", ("mask", "scope"): ["global"],
        ("mask", "synflow_iterations"): 2.5, ("mask", "imp_rounds"): True,
        ("train", "epochs"): 2.0, ("train", "batch"): True, ("train", "lr0"): "0.1",
        ("train", "momentum"): "0.9", ("train", "wd"): False, ("train", "milestones"): "1",
        ("train", "ls_alpha"): "0.1", ("train", "seed"): "0",
        ("ghost", "policy"): 5, ("ghost", "beta0"): True, ("ghost", "beta_max"): True,
        ("ghost", "alpha0"): True, ("ghost", "schedule"): ["linear"],
        ("ghost", "activation"): None,
        ("lrsi", "iters"): 2.5, ("lrsi", "step"): True, ("lrsi", "bounds"): "ab",
        ("probes", "enabled"): "false", ("probes", "every"): 5.0, ("probes", "eig_count"): 1.5,
        ("probes", "power_iters"): 2.5, ("probes", "tol"): True, ("probes", "act_eps"): True,
        ("probes", "probe_batch"): 2.5, ("probes", "landscape_grid"): 3.0,
        ("probes", "landscape_span"): True,
    }

    def test_every_key_has_a_wrong_typed_case(self):
        assert set(self.WRONG_TYPED) == {(section, key) for section, keys
                                         in experiments._SCHEMA.items() for key in keys}

    @pytest.mark.parametrize("section, key", sorted(WRONG_TYPED))
    def test_wrong_type_exits_2_before_any_run(self, tmp_path, section, key):
        base = json.loads(Path(_config(tmp_path)).read_text())
        given = {**base.get(section, {}), key: self.WRONG_TYPED[section, key]}
        if key == "layers":
            given = {"layers": given["layers"], "in_shape": [2], "classes": 2}
        if key in ("path", "labels_path", "limit"):
            given = {"name": "idx", "path": str(tmp_path / "a.idx"), key: given[key]}
        path = _config(tmp_path, **{section: given, "tweaks": ["baseline", "toolkit"]})
        with pytest.raises(ConfigError) as err:
            experiments.load_config(path)
        if key != "layers":
            assert key in str(err.value)
        assert cli.main(["run", path]) == 2
        assert not (tmp_path / "runs").exists()


class TestGridExecution:
    def test_cell_count_and_summary_rows(self, tmp_path):
        path = _config(tmp_path, tweaks=["baseline", "toolkit"],
                       train={"epochs": 2, "batch": 16, "lr0": 0.1, "milestones": [1],
                              "ls_alpha": 0.1, "seed": [0, 1, 2]})
        code, results = experiments.run_experiment(path)
        assert code == 0
        assert len(results) == 6      # 1 algo x 1 sparsity x 2 tweaks x 3 seeds
        summary = experiments.read_summary(str(tmp_path / "runs" / "summary.csv"))
        assert len(summary) == 2
        assert {r["tweaks"] for r in summary} == {"baseline", "toolkit"}
        assert all(r["n_seeds"] == "3" for r in summary)

    def test_sparsity_zero_dense_row(self, tmp_path):
        path = _config(tmp_path, mask={"algo": "random", "sparsity": 0.0})
        code, results = experiments.run_experiment(path)
        assert code == 0
        run_dir = tmp_path / "runs" / "random_s0_baseline" / "seed0"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "final.splb").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = _config(tmp_path, tweaks=["toolkit"])
        experiments.run_experiment(path, out_dir=str(tmp_path / "a"))
        experiments.run_experiment(path, out_dir=str(tmp_path / "b"))
        for root, _dirs, files in os.walk(tmp_path / "a"):
            for f in files:
                if not f.endswith(".csv"):
                    continue
                rel = os.path.relpath(os.path.join(root, f), tmp_path / "a")
                a = open(os.path.join(tmp_path, "a", rel), "rb").read()
                b = open(os.path.join(tmp_path, "b", rel), "rb").read()
                assert a == b, rel

    def test_mask_shared_across_tweaks(self, tmp_path):
        """The same seed must see the same mask with and without tweaks."""
        from sparselab import checkpoint
        path = _config(tmp_path, tweaks=["baseline", "toolkit"])
        experiments.run_experiment(path)
        base = checkpoint.load_blocks(str(tmp_path / "runs" / "random_s0.5_baseline"
                                          / "seed0" / "final.splb"))
        full = checkpoint.load_blocks(str(tmp_path / "runs" / "random_s0.5_toolkit"
                                          / "seed0" / "final.splb"))
        for name in base:
            if name.endswith(".mask"):
                np.testing.assert_array_equal(base[name], full[name])

    def test_learned_scales_logged(self, tmp_path):
        path = _config(tmp_path, tweaks=["lrsi"])
        experiments.run_experiment(path)
        scales_csv = tmp_path / "runs" / "random_s0.5_lrsi" / "seed0" / "lrsi_scales.csv"
        rows = experiments.read_summary(str(scales_csv))
        assert len(rows) == 4      # one scalar per dense layer
        assert all(float(r["scale"]) > 0 for r in rows)
        baseline_dir = tmp_path / "runs" / "random_s0.5_lrsi"
        assert not (baseline_dir / "seed0" / "spectrum.csv").exists()


class TestCompareRuns:
    def _summary(self, path, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(experiments.SUMMARY_COLUMNS)
            for r in rows:
                w.writerow(r)

    def test_identical_summaries_zero_delta(self, tmp_path):
        rows = [["random", "0.9", "baseline", "3", "0.8", "0.02", "0.85", "0.4", "0"]]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self._summary(a, rows)
        self._summary(b, rows)
        out = experiments.compare_runs([a, b])
        assert len(out) == 1 and out[0]["delta"] == 0.0

    def test_disjoint_sparsities_rejected(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self._summary(a, [["random", "0.9", "baseline", "3", "0.8", "0.0", "0.8", "0.4", "0"]])
        self._summary(b, [["random", "0.5", "baseline", "3", "0.8", "0.0", "0.8", "0.4", "0"]])
        with pytest.raises(ValueError, match="axes"):
            experiments.compare_runs([a, b])

    def test_delta_of_means_is_mean_of_deltas(self, tmp_path):
        rng = np.random.default_rng(0)
        accs_a, accs_b = rng.uniform(0.5, 0.9, 5), rng.uniform(0.5, 0.9, 5)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self._summary(a, [["random", "0.9", "baseline", "5",
                           format(accs_a.mean(), ".17g"), "0.0", "0", "0", "0"]])
        self._summary(b, [["random", "0.9", "baseline", "5",
                           format(accs_b.mean(), ".17g"), "0.0", "0", "0", "0"]])
        out = experiments.compare_runs([a, b])
        np.testing.assert_allclose(out[0]["delta"], np.mean(accs_b - accs_a), atol=1e-12)

    def test_csv_output(self, tmp_path):
        rows = [["random", "0.9", "baseline", "3", "0.8", "0.02", "0.85", "0.4", "0"]]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self._summary(a, rows)
        self._summary(b, [["random", "0.9", "baseline", "3", "0.9", "0.01", "0.9", "0.3", "0"]])
        out_path = str(tmp_path / "delta.csv")
        experiments.compare_runs([a, b], out_path=out_path)
        rows = experiments.read_summary(out_path)
        assert float(rows[0]["delta"]) == pytest.approx(0.1)


class TestCli:
    def test_run_and_compare_verbs(self, tmp_path):
        path = _config(tmp_path)
        assert cli.main(["run", path, "--out", str(tmp_path / "r1")]) == 0
        assert cli.main(["run", path, "--out", str(tmp_path / "r2")]) == 0
        delta = str(tmp_path / "delta.csv")
        assert cli.main(["compare", str(tmp_path / "r1" / "summary.csv"),
                         str(tmp_path / "r2" / "summary.csv"), "--out", delta]) == 0
        assert os.path.exists(delta)

    def test_run_prints_why_a_cell_diverged(self, tmp_path, capsys):
        path = _config(tmp_path, train={"epochs": 2, "batch": 16, "lr0": 1000.0,
                                        "milestones": [1], "seed": [0]})
        assert cli.main(["run", path]) == 1
        out = capsys.readouterr().out
        assert "random s=0.5 baseline seed=0: DIVERGED (train loss " in out
        assert "at epoch 0, batch " in out
        metrics = tmp_path / "runs" / "random_s0.5_baseline" / "seed0" / "metrics.csv"
        assert "train loss" not in metrics.read_text()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {}, "dataset": {}, "mask": {}, "train": {},
                                   "bogus_key": 1}))
        assert cli.main(["run", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_missing_checkpoint_is_a_run_failure(self, tmp_path, capsys):
        path = _config(tmp_path)
        assert cli.main(["probe", str(tmp_path / "nope.splb"), "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.splb" in err

    def test_mask_out_creates_its_directory(self, tmp_path):
        out = tmp_path / "new" / "dir" / "m.splb"
        assert cli.main(["mask", _config(tmp_path), "--algo", "random", "--sparsity", "0.5",
                         "--out", str(out)]) == 0
        assert out.exists()

    def test_closed_stdout_exits_without_traceback(self):
        """`sparselab selftest | head -1`: the reader goes away after one
        line; the verb stops with exit code 1 and nothing on stderr."""
        src = os.path.dirname(os.path.dirname(sparselab.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen([sys.executable, "-m", "sparselab", "selftest"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"PASS")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_mask_and_probe_verbs(self, tmp_path):
        path = _config(tmp_path)
        out = str(tmp_path / "mask.splb")
        assert cli.main(["mask", path, "--algo", "magnitude", "--sparsity", "0.5",
                         "--out", out]) == 0
        probe_dir = str(tmp_path / "probes")
        assert cli.main(["probe", out, "--config", path, "--batch", "test:16",
                         "--spectrum", "--scan", "--landscape", "--out", probe_dir]) == 0
        for f in ("spectrum.csv", "scan.csv", "landscape.csv"):
            assert os.path.exists(os.path.join(probe_dir, f))


class TestProbeVerb:
    """Which files each probe flag set writes."""

    def _probe(self, tmp_path, *flags, **overrides):
        path = _config(tmp_path, **overrides)
        ck = str(tmp_path / "mask.splb")
        assert cli.main(["mask", path, "--algo", "magnitude", "--sparsity", "0.5",
                         "--out", ck]) == 0
        probe_dir = tmp_path / "probes"
        assert cli.main(["probe", ck, "--config", path, "--batch", "test:16", *flags,
                         "--out", str(probe_dir)]) == 0
        return probe_dir

    @pytest.mark.parametrize("flags, written", [
        ((), ["spectrum.csv"]),
        (("--scan",), ["scan.csv"]),
        (("--landscape",), ["landscape.csv"]),
    ])
    def test_flag_writes_only_its_file(self, tmp_path, flags, written):
        assert sorted(os.listdir(self._probe(tmp_path, *flags))) == written

    @pytest.mark.parametrize("spec", ["test:-3", "test:0", "train:abc", "valid:8"])
    def test_bad_batch_spec_is_a_config_error(self, tmp_path, spec):
        path = _config(tmp_path)
        ck = str(tmp_path / "mask.splb")
        assert cli.main(["mask", path, "--algo", "random", "--sparsity", "0.5", "--out", ck]) == 0
        assert cli.main(["probe", ck, "--config", path, "--batch", spec,
                         "--out", str(tmp_path / "probes")]) == 2
        assert not (tmp_path / "probes").exists()

    def test_eig_count_two_columns(self, tmp_path):
        probe_dir = self._probe(tmp_path, "--spectrum", probes={"eig_count": 2})
        with open(probe_dir / "spectrum.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lambda_1", "lambda_2", "residual_1", "residual_2",
                           "converged_1", "converged_2"]
        assert len(rows) == 2 and rows[1][0] == ""
        assert float(rows[1][1]) >= float(rows[1][2])
        assert rows[1][5] in ("0", "1") and rows[1][6] in ("0", "1")

    def test_quadratic_oracle_row_marked_converged(self, tmp_path):
        from sparselab import diagnostics
        a = np.diag([5.0, -4.0, -3.0])     # wide shifted gap: converges within tol 1e-3
        rec, _ = diagnostics.top_hessian_eigs(lambda t: a @ t, np.zeros(3), k=1, iters=200)
        path = str(tmp_path / "spectrum.csv")
        experiments._write_spectrum_csv(
            path, 1, [(None, rec.eigenvalues, rec.residuals, rec.converged)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lambda_1", "residual_1", "converged_1"]
        assert abs(float(rows[1][1]) - 5.0) <= 1e-3 and rows[1][3] == "1"


class TestSpectrumConvergence:
    def test_one_power_iteration_is_marked_not_converged(self, tmp_path):
        path = _config(tmp_path, probes={"enabled": True, "every": 1, "power_iters": 1,
                                         "probe_batch": 16})
        experiments.run_experiment(path)
        spectrum = tmp_path / "runs" / "random_s0.5_baseline" / "seed0" / "spectrum.csv"
        with open(spectrum, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lambda_1", "residual_1", "converged_1"]
        assert len(rows) == 3                   # epochs 1 and 2
        assert all(r[3] == "0" for r in rows[1:])


class TestImpRounds:
    def test_rounds_run_no_spectrum_probe(self, tmp_path, monkeypatch):
        """lth's rounds drop their histories, so they skip the Hessian probe;
        the cells trained with the mask still run it every epoch."""
        calls = []
        real = diagnostics.top_hessian_eigs

        def spy(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(diagnostics, "top_hessian_eigs", spy)
        path = _config(tmp_path, mask={"algo": "lth", "sparsity": 0.5, "imp_rounds": 2},
                       probes={"enabled": True, "every": 1, "power_iters": 2,
                               "probe_batch": 16})
        assert cli.main(["mask", path, "--algo", "lth", "--sparsity", "0.5",
                         "--out", str(tmp_path / "m.splb")]) == 0
        assert calls == []
        assert experiments.run_experiment(path)[0] == 0
        assert len(calls) == 2          # one cell, two epochs
