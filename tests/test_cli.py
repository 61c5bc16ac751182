"""End-to-end checks of the command-line interface.

Commands run in process through cli.main so the suite stays fast; one test
goes through a real subprocess to prove the console-script wiring. The
recurring theme is byte-level reproducibility: a rerun with the same seed
must recreate every artifact exactly.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfa import cli
from tfa.datasets import (
    SyntheticShapesSpec,
    encode_cifar10_bytes,
    generate_synthetic,
    load_cifar10_binary,
)
from tfa.outputs import read_key_value, write_manifest
from tfa.tda import dense_hessian, rank_training_set


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small trained run shared by the downstream-command tests."""
    out = tmp_path_factory.mktemp("cli") / "run"
    code = cli.main(
        [
            "train",
            "--size", "12",
            "--train-per-class", "25",
            "--holdout-per-class", "10",
            "--test-per-class", "8",
            "--epochs", "6",
            "--lr", "0.2",
            "--lr-decay", "1.0",
            "--batch-size", "16",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    """A CIFAR-10 binary directory of 12 records per batch file, labels 0, 1, 2 in turn."""
    out = tmp_path_factory.mktemp("cifar") / "batches"
    out.mkdir()
    rng = np.random.default_rng(0)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        X = rng.integers(0, 256, size=(12, 3, 32, 32)) / 255.0
        (out / name).write_bytes(encode_cifar10_bytes(X, np.arange(12) % 3))
    return out


CIFAR_FLAGS = ["--data", "cifar10", "--holdout-per-class", "5", "--epochs", "1", "--batch-size", "8"]


def read_rank_table(path):
    lines = path.read_text().strip().splitlines()
    return [(int(i), float(score)) for i, _, score in (l.split(",") for l in lines[1:])]


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["toy-ridge", "--no-such-flag"]) == 1

    def test_missing_run_directory_is_data_error(self, tmp_path, capsys):
        code = cli.main(["rank", "--run", str(tmp_path / "nope"), "--test-index", "0"])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_out_of_range_test_index_is_data_error(self, run_dir, capsys):
        assert cli.main(["rank", "--run", str(run_dir), "--test-index", "999"]) == 2

    def test_non_positive_epsilon_is_usage_error(self, run_dir, capsys):
        code = cli.main(["rank", "--run", str(run_dir), "--test-index", "0", "--epsilon", "0"])
        assert code == 1
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--batch-size", "0"], ["--test-per-class", "0"], ["--lr", "0"]]
    )
    def test_invalid_train_value_is_usage_error(self, flag, tmp_path, capsys):
        out = tmp_path / "r"
        code = cli.main(["train", "--size", "12", "--epochs", "1", *flag, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["insertion", "--run", "RUN", "--tests", "0"], "--tests"),
            (["insertion", "--run", "RUN", "--ks", "150"], "--ks"),
            (["saliency", "--run", "RUN", "--train-index", "0", "--test-index", "0", "--samples", "0"], "--samples"),
            (["saliency", "--run", "RUN", "--train-index", "0", "--test-index", "0", "--sigma", "-1"], "--sigma"),
            (["explain", "--run", "RUN", "--test-index", "0", "--samples", "0"], "--samples"),
            (["explain", "--run", "RUN", "--test-index", "0", "--top-r", "-1"], "--top-r"),
            (["rank", "--run", "RUN", "--test-index", "0", "--top", "-1"], "--top"),
            (["patch-sweep", "--size", "12", "--patch-size", "0", "--out", "OUT"], "--patch-size"),
            (["patch-sweep", "--size", "12", "--patch-size", "13", "--out", "OUT"], "--patch-size"),
            (["patch-sweep", "--size", "12", "--patch-color", "1.5", "--out", "OUT"], "--patch-color"),
            (["patch-sweep", "--size", "12", "--fractions", "0,1.5", "--out", "OUT"], "--fractions"),
            (["patch-sweep", "--size", "12", "--probe-class", "0", "--out", "OUT"], "--probe-class"),
            (["patch-sweep", "--size", "12", "--probe-class", "3", "--out", "OUT"], "--probe-class"),
            (["train", "--data", "cifar10", "--per-class-cap", "0", "--out", "OUT"], "--per-class-cap"),
            (["train", "--data", "cifar10", "--cifar-classes", "0,10", "--out", "OUT"], "--cifar-classes"),
            (["train", "--data", "cifar10", "--data-dir", "batches ", "--out", "OUT"], "--data-dir"),
            (["train", "--data", "cifar10", "--data-dir", "a\nb", "--out", "OUT"], "--data-dir"),
            (["rank", "--run", "RUN", "--test-index", "0", "--method", "influence", "--lam", "nan"], "--lam"),
            (["rank", "--run", "RUN", "--test-index", "0", "--method", "influence", "--lam", "inf"], "--lam"),
            (["rank", "--run", "RUN", "--test-index", "0", "--epsilon", "inf"], "--epsilon"),
            (["saliency", "--run", "RUN", "--train-index", "0", "--test-index", "0", "--sigma", "inf"], "--sigma"),
            (["insertion", "--run", "RUN", "--lr-step", "nan"], "--lr-step"),
            (["train", "--lr", "nan", "--out", "OUT"], "--lr"),
            (["train", "--noise", "nan", "--out", "OUT"], "--noise"),
            (["patch-sweep", "--lr-decay", "inf", "--out", "OUT"], "--lr-decay"),
            (["toy-ridge", "--lambda", "nan"], "--lambda"),
            (["toy-ridge", "--t", "nan"], "--t"),
            (["toy-ridge", "--c=-inf"], "--c"),
        ],
    )
    def test_bad_value_is_one_line_usage_error(self, argv, flag, run_dir, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a bad flag value reached the library")

        for name in ("train", "patch_sweep", "paired_insertion_experiment", "explain_misclassification",
                     "smoothgrad_saliency", "rank_training_set"):
            monkeypatch.setattr(cli, name, must_not_run)
        out = tmp_path / "out"
        argv = [{"RUN": str(run_dir), "OUT": str(out)}.get(a, a) for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            [],  # 20 images per class and the default --holdout-per-class 20
            ["--cifar-classes", "1,1", "--holdout-per-class", "2"],  # listed class 0 gets no image
        ],
    )
    def test_cifar_class_without_training_images_is_usage_error(self, flags, cifar_dir, tmp_path, capsys):
        out = tmp_path / "r"
        code = cli.main(["train", "--data", "cifar10", "--data-dir", str(cifar_dir), *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "no training images" in err and "--cifar-classes" in err
        assert not out.exists()

    def test_cifar_without_data_dir_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--data", "cifar10", "--out", str(tmp_path / "r")]
        )
        assert code == 1

    def test_console_script_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tfa.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("tfa ")


class TestToyRidge:
    def parse(self, out):
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        return rows

    def test_axis_examples_get_exactly_zero(self, capsys):
        assert cli.main(["toy-ridge"]) == 0
        rows = self.parse(capsys.readouterr().out)
        assert len(rows) == 5
        for row in rows[:-1]:
            assert float(row["alpha"]) == 0.0
            assert float(row["beta_2"]) == 0.0

    def test_last_example_carries_the_prediction(self, capsys):
        # c = 2, lam = 1, t = 1: alpha_n = c t/(c^2+lam) = 2/5, alpha_n y_n = 4/5
        assert cli.main(["toy-ridge"]) == 0
        rows = self.parse(capsys.readouterr().out)
        last = rows[-1]
        assert abs(float(last["alpha"]) - 0.4) < 1e-12
        assert abs(float(last["alpha"]) * float(last["y"]) - 0.8) < 1e-12

    def test_stdout_matches_written_csv(self, tmp_path, capsys):
        assert cli.main(["toy-ridge", "--out", str(tmp_path)]) == 0
        stdout_table = capsys.readouterr().out
        written = (tmp_path / "tables" / "toy_ridge.csv").read_text()
        assert stdout_table == written

    def test_n_controls_axis_count(self, capsys):
        assert cli.main(["toy-ridge", "--n", "3"]) == 0
        assert len(self.parse(capsys.readouterr().out)) == 3

    def test_rejects_degenerate_n(self, capsys):
        assert cli.main(["toy-ridge", "--n", "1"]) == 1


class TestTrain:
    def test_run_directory_contents(self, run_dir):
        manifest = read_key_value(run_dir / "manifest.txt")
        assert manifest["command"] == "train"
        assert manifest["arch"] == "tiny-cnn"
        assert manifest["input_shape"] == "1x12x12"
        params = np.load(run_dir / "params.npy")
        assert params.shape == (int(manifest["num_params"]),)
        assert float(manifest["final_train_accuracy"]) > 0.5

    def test_derived_seeds_are_recorded(self, run_dir):
        manifest = read_key_value(run_dir / "manifest.txt")
        # data and train streams must differ or reruns could entangle them
        assert manifest["data_seed"] != manifest["train_seed"]

    def test_rerun_reproduces_params_byte_for_byte(self, run_dir, tmp_path, capsys):
        args = [
            "train",
            "--size", "12",
            "--train-per-class", "25",
            "--holdout-per-class", "10",
            "--test-per-class", "8",
            "--epochs", "6",
            "--lr", "0.2",
            "--lr-decay", "1.0",
            "--batch-size", "16",
            "--seed", "3",
            "--out", str(tmp_path / "again"),
        ]
        assert cli.main(args) == 0
        original = (run_dir / "params.npy").read_bytes()
        rerun = (tmp_path / "again" / "params.npy").read_bytes()
        assert rerun == original


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epochs=1\nlr=0.3\nsize=12\n")
        out = tmp_path / "run"
        code = cli.main(
            [
                "--config", str(cfg),
                "train",
                "--train-per-class", "5",
                "--holdout-per-class", "0",
                "--test-per-class", "2",
                "--epochs", "2",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = read_key_value(out / "manifest.txt")
        assert manifest["lr"] == "0.3"  # from the file
        assert manifest["epochs"] == "2"  # flag overrides the file

    def test_unknown_key_is_one_line_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("c=3.0\nnn=3\n")  # nn: a typo for n
        assert cli.main(["--config", str(cfg), "toy-ridge"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(cfg) in captured.err and "nn" in captured.err

    def test_malformed_line_is_one_line_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("c=3.0\ngarbage\n")
        assert cli.main(["--config", str(cfg), "toy-ridge"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{cfg}:2" in captured.err and "garbage" in captured.err

    def test_flag_that_abbreviates_config_is_not_config(self, capsys):
        assert cli.main(["toy-ridge", "--c", "3"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.split(",")[1] == "3.0"  # the planted example's label is c

    def test_missing_config_file_is_data_error(self, capsys):
        assert cli.main(["--config", "/no/such/file", "toy-ridge"]) == 2


class TestRank:
    def test_table_is_sorted_and_complete(self, run_dir, capsys):
        code = cli.main(["rank", "--run", str(run_dir), "--test-index", "0", "--top", "2"])
        assert code == 0
        table = run_dir / "tables" / "rank_test0_grad-cos.csv"
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "train_index,method,score"
        assert len(lines) == 1 + 75  # every training example scored
        scores = [float(l.split(",")[2]) for l in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_relatif_needs_no_explicit_damping(self, run_dir, capsys):
        code = cli.main(
            [
                "rank",
                "--run", str(run_dir),
                "--test-index", "1",
                "--method", "relatif",
                "--hessian-examples", "30",
            ]
        )
        assert code == 0
        manifest = read_key_value(run_dir / "manifest_rank_test1_relatif.txt")
        assert float(manifest["lam"]) > 0.0

    def test_manifest_records_damping_and_smallest_eigenvalue(self, run_dir, capsys):
        base = ["rank", "--run", str(run_dir), "--test-index", "2", "--hessian-examples", "20"]
        assert cli.main(base + ["--method", "influence"]) == 0
        manifest = read_key_value(run_dir / "manifest_rank_test2_influence.txt")
        run = cli.Run(run_dir)
        hessian = dense_hessian(run.model, run.params, run.train_ds.subset(range(20)))
        smallest = float(np.linalg.eigvalsh(hessian.matrix)[0])
        assert float(manifest["lambda_min"]) == smallest
        assert float(manifest["lam"]) == hessian.default_damping() + max(0.0, -1.1 * smallest)
        assert cli.main(base) == 0
        assert read_key_value(run_dir / "manifest_rank_test2_grad-cos.txt")["lambda_min"] == "unused"

    @pytest.mark.parametrize(
        "method, lam, epsilon",
        [("grad-cos", "unused", "unused"), ("grad-effect", "unused", 0.002), ("relatif", 5.0, "unused")],
    )
    def test_manifest_records_a_flag_that_shaped_nothing_as_unused(
        self, run_dir, method, lam, epsilon, capsys
    ):
        argv = ["rank", "--run", str(run_dir), "--test-index", "3", "--method", method]
        argv += ["--lam", "5", "--epsilon", "0.002", "--hessian-examples", "10"]
        assert cli.main(argv) == 0
        manifest = read_key_value(run_dir / f"manifest_rank_test3_{method}.txt")
        assert [manifest["lam"], manifest["epsilon"]] == [str(lam), str(epsilon)]

    @pytest.mark.parametrize("method", ["influence", "relatif"])
    def test_library_default_damping_ranks_as_the_cli(self, run_dir, method, capsys):
        argv = ["rank", "--run", str(run_dir), "--test-index", "4", "--method", method]
        assert cli.main([*argv, "--hessian-examples", "20"]) == 0
        run = cli.Run(run_dir)
        hessian = dense_hessian(run.model, run.params, run.train_ds.subset(range(20)))
        assert np.linalg.eigvalsh(hessian.matrix)[0] < 0.0  # indefinite: the default must damp
        expected = rank_training_set(
            run.model, run.params, run.train_ds, run.test_example(4), method, hessian=hessian
        )
        table = read_rank_table(run_dir / "tables" / f"rank_test4_{method}.csv")
        assert table == [(r.train_index, r.score) for r in expected.records]

    @pytest.mark.parametrize("method", ["influence", "relatif"])
    @pytest.mark.parametrize("examples", ["0", "-3"])
    def test_no_hessian_examples_is_usage_error(self, run_dir, method, examples, capsys):
        code = cli.main(
            ["rank", "--run", str(run_dir), "--test-index", "0", "--method", method,
             "--hessian-examples", examples]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--hessian-examples" in err

    def test_indefinite_user_damping_is_usage_error(self, run_dir, capsys):
        code = cli.main(
            ["rank", "--run", str(run_dir), "--test-index", "0", "--method", "influence",
             "--hessian-examples", "10", "--lam", "-1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--lam" in err and "smallest eigenvalue" in err

    def test_mse_run_is_ranked_with_mse_gradients(self, tmp_path, capsys):
        out = tmp_path / "mse"
        flags = ["--size", "12", "--train-per-class", "6", "--holdout-per-class", "0"]
        flags += ["--test-per-class", "2", "--epochs", "2", "--loss", "mse", "--seed", "1"]
        assert cli.main(["train", *flags, "--out", str(out)]) == 0
        assert cli.main(["rank", "--run", str(out), "--test-index", "0"]) == 0
        table = read_rank_table(out / "tables" / "rank_test0_grad-cos.csv")
        run = cli.Run(out)
        expected = rank_training_set(
            run.model, run.params, run.train_ds, run.test_example(0), kind="mse"
        )
        assert table == [(r.train_index, r.score) for r in expected.records]


class TestSaliency:
    def test_raw_equals_sigma_zero_single_sample(self, run_dir, capsys):
        base = ["saliency", "--run", str(run_dir), "--train-index", "2", "--test-index", "0"]
        assert cli.main(base + ["--sigma", "0", "--samples", "1"]) == 0
        stem = run_dir / "maps" / "saliency_train2_test0"
        sigma_zero = stem.with_suffix(".pgm").read_bytes(), stem.with_suffix(".csv").read_bytes()
        assert cli.main(base + ["--raw"]) == 0
        raw = stem.with_suffix(".pgm").read_bytes(), stem.with_suffix(".csv").read_bytes()
        assert raw == sigma_zero

    def test_sigma_zero_manifest_records_one_sample_and_an_unused_seed(self, run_dir, capsys):
        argv = ["saliency", "--run", str(run_dir), "--train-index", "2", "--test-index", "0"]
        assert cli.main(argv + ["--sigma", "0", "--samples", "10", "--seed", "5"]) == 0
        manifest = read_key_value(run_dir / "manifest_saliency_train2_test0.txt")
        assert [manifest["sigma"], manifest["samples"], manifest["seed"]] == ["0.0", "1", "unused"]
        assert cli.main(argv + ["--samples", "3", "--seed", "5"]) == 0
        manifest = read_key_value(run_dir / "manifest_saliency_train2_test0.txt")
        assert [manifest["sigma"], manifest["samples"], manifest["seed"]] == ["0.05", "3", "5"]

    def test_rerun_is_byte_identical(self, run_dir, capsys):
        base = [
            "saliency",
            "--run", str(run_dir),
            "--train-index", "3",
            "--test-index", "2",
            "--sigma", "0.05",
            "--samples", "3",
            "--seed", "7",
        ]
        stem = run_dir / "maps" / "saliency_train3_test2"
        assert cli.main(base) == 0
        first = stem.with_suffix(".pgm").read_bytes(), stem.with_suffix(".csv").read_bytes()
        assert cli.main(base) == 0
        second = stem.with_suffix(".pgm").read_bytes(), stem.with_suffix(".csv").read_bytes()
        assert second == first

    def test_bad_train_index_is_data_error(self, run_dir, capsys):
        code = cli.main(
            ["saliency", "--run", str(run_dir), "--train-index", "999", "--test-index", "0"]
        )
        assert code == 2


class TestInsertion:
    def test_full_insertion_row_is_identically_zero(self, run_dir, capsys):
        code = cli.main(
            [
                "insertion",
                "--run", str(run_dir),
                "--ks", "100",
                "--tests", "2",
                "--top-m", "2",
                "--samples", "2",
                "--seed", "9",
            ]
        )
        assert code == 0
        lines = (run_dir / "tables" / "insertion.csv").read_text().strip().splitlines()
        assert lines[0].startswith("k,")
        k, rand, topk, delta, ci, pairs = lines[1].split(",")
        assert float(k) == 100.0
        assert float(delta) == 0.0
        assert float(ci) == 0.0
        assert int(pairs) == 4


class TestExplain:
    def test_writes_table_and_maps(self, run_dir, capsys):
        code = cli.main(
            [
                "explain",
                "--run", str(run_dir),
                "--test-index", "1",
                "--top-r", "2",
                "--samples", "2",
            ]
        )
        assert code == 0
        lines = (run_dir / "tables" / "explain_test1.csv").read_text().strip().splitlines()
        assert lines[0] == "tail,train_index,score"
        assert len(lines) == 1 + 4  # two helpful + two harmful rows
        for line in lines[1:]:
            tail, idx, _ = line.split(",")
            assert tail in ("helpful", "harmful")
            assert (run_dir / "maps" / f"explain_test1_train{idx}.pgm").exists()


class TestManifests:
    @pytest.mark.parametrize(
        "argv, manifest",
        [
            (["rank", "--run", "RUN", "--test-index", "5", "--method", "grad-effect"],
             "{RUN}/manifest_rank_test5_grad-effect.txt"),
            (["saliency", "--run", "RUN", "--train-index", "5", "--test-index", "5", "--raw"],
             "{RUN}/manifest_saliency_train5_test5.txt"),
            (["insertion", "--run", "RUN", "--ks", "100", "--tests", "1", "--top-m", "1", "--samples", "1"],
             "{RUN}/manifest_insertion.txt"),
            (["explain", "--run", "RUN", "--test-index", "5", "--top-r", "1", "--samples", "1"],
             "{RUN}/manifest_explain_test5.txt"),
            (["patch-sweep", "--size", "12", "--train-per-class", "4", "--holdout-per-class", "0",
              "--test-per-class", "2", "--epochs", "1", "--fractions", "0", "--probes", "1", "--harmful", "1",
              "--samples", "1", "--out", "OUT"],
             "{OUT}/manifest.txt"),
        ],
    )
    def test_every_flag_that_shapes_an_artifact_is_recorded(self, argv, manifest, run_dir, tmp_path, capsys):
        places = {"RUN": str(run_dir), "OUT": str(tmp_path / "out")}
        assert cli.main([places.get(a, a) for a in argv]) == 0
        keys = read_key_value(manifest.format(**places))
        subparser = cli.build_parser()._subparsers._group_actions[0].choices[argv[0]]
        # --run and --out are locations, rank --top and saliency --raw shape no
        # artifact, and the run record of a synthetic run holds no CIFAR-10 flag
        unrecorded = {"help", "run", "out", "top", "raw", *CIFAR_KEYS}
        assert {a.dest for a in subparser._actions} - unrecorded <= keys.keys()


SYNTHETIC_KEYS = ("size", "classes", "noise", "train_per_class", "test_per_class")
CIFAR_KEYS = ("data_dir", "cifar_classes", "per_class_cap")


class TestRunRecord:
    def test_cifar_run_round_trip(self, cifar_dir, tmp_path, capsys):
        out = tmp_path / "run"
        flags = [*CIFAR_FLAGS, "--data-dir", str(cifar_dir), "--cifar-classes", "2,0", "--seed", "4"]
        assert cli.main(["train", *flags, "--out", str(out)]) == 0
        manifest = read_key_value(out / "manifest.txt")
        assert all(key in manifest for key in CIFAR_KEYS)
        assert not any(key in manifest for key in SYNTHETIC_KEYS)
        assert manifest["cifar_classes"] == "2,0"
        assert manifest["num_classes"] == "2"
        assert manifest["input_shape"] == "3x32x32"
        assert cli.main(["rank", "--run", str(out), "--test-index", "1"]) == 0
        run = cli.Run(out)
        assert len(run.train_ds) == 2 * (20 - 5) and len(run.holdout) == 2 * 5
        expected = rank_training_set(run.model, run.params, run.train_ds, run.test_example(1))
        table = read_rank_table(out / "tables" / "rank_test1_grad-cos.csv")
        assert table == [(r.train_index, r.score) for r in expected.records]

    def test_malformed_manifest_line_is_data_error(self, run_dir, tmp_path, capsys):
        (tmp_path / "manifest.txt").write_text((run_dir / "manifest.txt").read_text() + "garbage\n")
        (tmp_path / "params.npy").write_bytes((run_dir / "params.npy").read_bytes())
        assert cli.main(["rank", "--run", str(tmp_path), "--test-index", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot restore run" in err and "expected key=value" in err

    def test_parent_format_synthetic_manifest_restores_the_same_data(self, tmp_path):
        (tmp_path / "manifest.txt").write_text(
            "command=train\nseed=3\ndata=synthetic\nsize=12\nclasses=3\nnoise=0.05\n"
            "train_per_class=15\nholdout_per_class=4\ntest_per_class=4\n"
            "data_seed=18063667083137579888\narch=tiny-cnn\ninput_shape=1x12x12\nnum_classes=3\n"
            "lr=0.2\nepochs=2\nbatch_size=32\nlr_decay=0.93\nloss=mse\n"
            "train_seed=10770821970221957459\nnum_params=1299\n"
            "final_train_accuracy=0.3333333333333333\ntest_accuracy=0.3333333333333333\n"
        )
        np.save(tmp_path / "params.npy", np.zeros(1299))
        run = cli.Run(tmp_path)
        spec = SyntheticShapesSpec(
            size=12, num_classes=3, noise=0.05, train_per_class=15, holdout_per_class=4,
            test_per_class=4, seed=18063667083137579888,
        )
        for restored, expected in zip((run.train_ds, run.holdout, run.test_ds), generate_synthetic(spec)):
            assert np.array_equal(restored.X, expected.X) and np.array_equal(restored.y, expected.y)
        assert (run.arch.input_shape, run.arch.num_classes, run.model.num_params) == ((1, 12, 12), 3, 1299)
        config = run.config
        assert (config.lr, config.epochs, config.batch_size, config.lr_decay) == (0.2, 2, 32, 0.93)
        assert (config.loss, config.seed) == ("mse", 10770821970221957459)

    def test_parent_format_cifar_manifest_restores_the_same_data(self, cifar_dir, tmp_path):
        (tmp_path / "manifest.txt").write_text(
            f"command=train\nseed=5\ndata=cifar10\ndata_dir={cifar_dir}\ncifar_classes=1,2\n"
            "per_class_cap=12\nholdout_per_class=2\ndata_seed=10232721678932157264\n"
            "arch=tiny-cnn\ninput_shape=3x32x32\nnum_classes=2\n"
            "lr=0.25\nepochs=2\nbatch_size=8\nlr_decay=0.93\nloss=cross-entropy\n"
            "train_seed=6628749420411780115\nnum_params=2546\n"
            "final_train_accuracy=0.5\ntest_accuracy=0.5\n"
        )
        np.save(tmp_path / "params.npy", np.zeros(2546))
        run = cli.Run(tmp_path)
        train_ds, test_ds = load_cifar10_binary(cifar_dir, [1, 2], 12)
        holdout = np.isin(np.arange(24), [20, 21, 22, 23])  # the last two of each class
        assert np.array_equal(run.train_ds.X, train_ds.X[~holdout])
        assert np.array_equal(run.train_ds.y, train_ds.y[~holdout])
        assert np.array_equal(run.holdout.X, train_ds.X[holdout])
        assert np.array_equal(run.test_ds.X, test_ds.X) and np.array_equal(run.test_ds.y, test_ds.y)
        assert (run.arch.num_classes, run.model.num_params, run.config.batch_size) == (2, 2546, 8)
        np.save(tmp_path / "params.npy", np.zeros(2545))
        with pytest.raises(cli.FormatError, match="params.npy holds 2545 values"):
            cli.Run(tmp_path)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.sampled_from(["synthetic", "cifar10"]),
        seed=st.integers(0, 2**64 - 1),
        counts=st.tuples(*[st.integers(1, 10**6)] * 5),
        noise=st.floats(0.0, 1e6),
        data_dir=st.text("ab-_.=,/ \n", min_size=1, max_size=12),
        labels=st.lists(st.integers(0, 9), min_size=1, max_size=10),
        lr=st.floats(1e-300, 1e300),
        lr_decay=st.floats(1e-300, 1.0),
        loss=st.sampled_from(["cross-entropy", "mse"]),
    )
    def test_record_parses_back_to_the_same_values(
        self, tmp_path, data, seed, counts, noise, data_dir, labels, lr, lr_decay, loss
    ):
        size, train_per_class, holdout_per_class, cap, epochs = counts
        flags = [
            "train", "--data", data, "--seed", str(seed), "--size", str(size),
            "--classes", str(2 + size % 2), "--noise", repr(noise),
            "--train-per-class", str(train_per_class), "--holdout-per-class", str(holdout_per_class - 1),
            "--test-per-class", str(cap), f"--data-dir={data_dir}",
            "--cifar-classes", ",".join(map(str, labels)), "--per-class-cap", str(cap),
            "--lr", repr(lr), "--epochs", str(epochs), "--batch-size", str(cap),
            "--lr-decay", repr(lr_decay), "--loss", loss, "--out", "unused",
        ]
        try:
            args = cli.build_parser().parse_args(flags)
        except cli.UsageError as e:  # a path the record cannot hold is refused, not mangled
            assert "--data-dir" in str(e)
            return
        record = cli.run_record(args)
        write_manifest(tmp_path / "manifest.txt", record)
        parsed = cli.parse_run_record(read_key_value(tmp_path / "manifest.txt"))
        assert cli.run_record(parsed) == record
        assert (parsed.lr, parsed.lr_decay) == (lr, lr_decay)
        if data == "synthetic":
            assert parsed.noise == noise
        else:
            assert parsed.data_dir == os.path.abspath(data_dir)

    def test_relative_data_dir_is_recorded_absolute(self, cifar_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        monkeypatch.chdir(cifar_dir.parent)
        flags = [*CIFAR_FLAGS, "--data-dir", cifar_dir.name, "--cifar-classes", "0,1"]
        assert cli.main(["train", *flags, "--out", str(out)]) == 0
        recorded = read_key_value(out / "manifest.txt")["data_dir"]
        assert os.path.isabs(recorded) and os.path.samefile(recorded, cifar_dir)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["rank", "--run", str(out), "--test-index", "0"]) == 0
        assert (out / "tables" / "rank_test0_grad-cos.csv").exists()
