"""End-to-end checks of the command-line interface.

Commands run in process through cli.main so the suite stays fast; one test
goes through a real subprocess to prove the console-script wiring. The
recurring theme is byte-level reproducibility: a rerun with the same seed
must recreate every artifact exactly.
"""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cifar_records import encode_cifar10_bytes, write_batches
from tfa import cli
from tfa.datasets import SyntheticShapesSpec, generate_synthetic, load_cifar10_binary
from tfa.outputs import read_key_value, write_manifest
from tfa.tda import InsufficientDampingError, dense_hessian, rank_training_set


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


@pytest.fixture
def library_must_not_run(monkeypatch):
    """Every library call a command makes fails the test: a bad flag value must stop at the parser."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a bad flag value reached the library")

    for name in ("train", "patch_sweep", "paired_insertion_experiment", "explain_misclassification",
                 "smoothgrad_saliency", "rank_training_set"):
        monkeypatch.setattr(cli, name, must_not_run)


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
            (["train", "--data", "cifar10", "--holdout-per-class", "-3", "--out", "OUT"], "--holdout-per-class"),
            (["toy-ridge", "--lambda", "0"], "--lambda"),
            (["toy-ridge", "--lambda", "-1"], "--lambda"),
            (["toy-ridge", "--c", "1e200"], "--c"),  # X'X overflows
            (["toy-ridge", "--c", "1e154", "--lambda", "1e308"], "--lambda"),  # X'X + lam I overflows
            (["insertion", "--run", "RUN", "--ks", "10,20,10"], "--ks"),  # a repeated k would count its pairs twice
            (["patch-sweep", "--size", "12", "--fractions", "0.5,0.5", "--out", "OUT"], "--fractions"),  # one seed
            (["patch-sweep", "--size", "12", "--fractions", "0.5,0.5000001", "--out", "OUT"], "--fractions"),
            # argparse drops the value `--` of `--flag=--`
            (["train", "--size", "12", "--out=--"], "--out"),
            (["toy-ridge", "--out=--"], "--out"),
            (["saliency", "--run=--", "--train-index", "0", "--test-index", "0"], "--run"),
            (["--config=--", "toy-ridge"], "--config"),
            (["train", "--data", "cifar10", "--data-dir=--", "--out", "OUT"], "--data-dir"),
        ],
    )
    def test_bad_value_is_one_line_usage_error(self, argv, flag, run_dir, tmp_path, library_must_not_run, capsys):
        out = tmp_path / "out"
        argv = [{"RUN": str(run_dir), "OUT": str(out)}.get(a, a) for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, flag, reason",
        [
            (["--patch-color", "0.9,0.9,0.9"], "--patch-color", "patch color has 3 channels, image has 1"),
            (["--patch-size", "13"], "--patch-size", "patch of size 13 does not fit in 12x12 image"),
            (["--target-class", "2", "--probe-class", "2"], "--probe-class",
             "target class 2 and probe class 2 must be two different classes in [0, 3)"),
        ],
    )
    def test_patch_the_images_cannot_take_is_the_library_check_as_usage_error(
        self, flags, flag, reason, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "patch_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        out = tmp_path / "out"
        assert cli.main(["patch-sweep", "--size", "12", *flags, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert flag in line and line.endswith(reason)
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

    def test_patch_sweep_with_no_probe_class_test_image_is_one_line_data_error(self, tmp_path, monkeypatch, capsys):
        """The test batch holds classes 0 and 1 only, so class 2 can be neither the probe nor the target."""
        for name in ("train", "patch_sweep"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the sweep trained"))
        rng = np.random.default_rng(1)
        train_raw = encode_cifar10_bytes(rng.integers(0, 256, size=(12, 3, 32, 32)) / 255.0, np.arange(12) % 3)
        test_raw = encode_cifar10_bytes(rng.integers(0, 256, size=(12, 3, 32, 32)) / 255.0, np.arange(12) % 2)
        write_batches(tmp_path, [train_raw] * 5, test_raw)
        cases = [("--probe-class", ["--probe-class", "2"]), ("--target-class", ["--target-class", "2", "--probe-class", "0"])]
        for flag, classes in cases:
            out = tmp_path / "out"
            argv = ["patch-sweep", *CIFAR_FLAGS, "--data-dir", str(tmp_path), "--cifar-classes", "0,1,2",
                    "--patch-color", "0.9,0.9,0.9", *classes, "--out", str(out)]
            assert cli.main(argv) == 2
            (line,) = capsys.readouterr().err.strip().splitlines()
            assert line == f"error: the test split has no image of {flag} 2"
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

    def test_manifest_is_the_parsed_flags_by_dest(self, tmp_path, capsys):
        assert cli.main(["toy-ridge", "--lambda", "0.5", "--out", str(tmp_path)]) == 0
        manifest = read_key_value(tmp_path / "manifest.txt")
        subparser = cli.build_parser()._subparsers._group_actions[0].choices["toy-ridge"]
        dests = [a.dest for a in subparser._actions if a.dest not in ("help", "out")]
        assert list(manifest) == ["command", *dests] == ["command", "n", "c", "lam", "t"]
        assert manifest["lam"] == "0.5"


class TestTrain:
    def test_run_directory_contents(self, run_dir):
        manifest = read_key_value(run_dir / "manifest.txt")
        assert manifest["command"] == "train"
        assert manifest["arch"] == "tiny-cnn"
        assert manifest["input_shape"] == "1x12x12"
        params = np.load(run_dir / "params.npy")
        assert params.shape == (int(manifest["num_params"]),)
        assert float(manifest["final_train_accuracy"]) > 0.5

    def test_zero_epochs_records_the_accuracy_of_the_initial_parameters(self, tmp_path, capsys):
        out = tmp_path / "run"
        flags = ["--size", "12", "--train-per-class", "6", "--holdout-per-class", "0", "--test-per-class", "2"]
        assert cli.main(["train", *flags, "--epochs", "0", "--out", str(out)]) == 0
        run = cli.Run(out)
        recorded = float(read_key_value(out / "manifest.txt")["final_train_accuracy"])
        assert recorded == run.model.accuracy(run.params, run.train_ds) > 0.0

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


# one valid value per flag dest, none of them a default
PARITY_VALUES = {
    "data": "cifar10", "size": "12", "classes": "4", "noise": "0.1", "train_per_class": "7",
    "holdout_per_class": "3", "test_per_class": "5", "data_dir": "batches", "cifar_classes": "1,2",
    "per_class_cap": "9", "lr": "0.3", "epochs": "2", "batch_size": "8", "lr_decay": "0.9",
    "seed": "5", "out": "somewhere", "run": "elsewhere", "test_index": "2", "method": "relatif", "top": "3",
    "epsilon": "0.002", "lam": "2.5", "hessian_examples": "30", "train_index": "4", "sigma": "0.1",
    "samples": "3", "ks": "10,50", "tests": "4", "top_m": "2", "lr_step": "0.01", "fill": "zero",
    "top_r": "2", "fractions": "0,0.5", "patch_size": "3", "patch_color": "0.5,0.5,0.5", "target_class": "1",
    "probe_class": "2", "probes": "3", "harmful": "4", "n": "7", "c": "3.0", "t": "0.5",
}


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

    def test_repeated_key_is_one_line_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=3\nc=3.0\nn=7\n")
        assert cli.main(["--config", str(cfg), "toy-ridge"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{cfg}:3" in captured.err and "'n' given twice" in captured.err

    def test_flag_that_abbreviates_config_is_not_config(self, capsys):
        assert cli.main(["toy-ridge", "--c", "3"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.split(",")[1] == "3.0"  # the planted example's label is c

    def test_missing_config_file_is_data_error(self, capsys):
        assert cli.main(["--config", "/no/such/file", "toy-ridge"]) == 2

    @pytest.mark.parametrize(
        "pair, argv, flag",
        [
            ("method=bogus", ["rank", "--run", "RUN", "--test-index", "0"], "--method"),
            ("fill=bogus", ["insertion", "--run", "RUN"], "--fill"),
            ("data=bogus", ["train", "--out", "OUT"], "--data"),
            ("lr=abc", ["train", "--out", "OUT"], "--lr"),
        ],
    )
    def test_bad_value_is_one_line_usage_error(self, pair, argv, flag, run_dir, tmp_path, library_must_not_run, capsys):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text(pair + "\n")
        argv = [{"RUN": str(run_dir), "OUT": str(out)}.get(a, a) for a in argv]
        assert cli.main(["--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tfa {argv[0]}: argument {flag}: invalid ")
        assert err.count("\n") == 1 and repr(pair.split("=")[1]) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "patch-sweep"])
    def test_loss_is_no_flag(self, command, tmp_path, library_must_not_run, capsys):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text("loss=cross-entropy\n")
        assert cli.main(["--config", str(cfg), command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"{cfg}: loss: no subcommand has this flag\n"
        assert cli.main([command, "--loss", "cross-entropy", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--config", "CFG", "saliency"], ["saliency", "--raw"]])
    def test_raw_is_no_flag(self, argv, run_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("raw=false\n")
        argv = [{"CFG": str(cfg)}.get(a, a) for a in argv]
        assert cli.main([*argv, "--run", str(run_dir), "--train-index", "0", "--test-index", "0"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_file_supplies_a_required_flag(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "run"
        cfg.write_text(f"out={out}\nsize=12\ntrain-per-class=3\ntest-per-class=1\nholdout_per_class=0\nepochs=0\n")
        assert cli.main(["--config", str(cfg), "train"]) == 0
        assert read_key_value(out / "manifest.txt")["size"] == "12"

    def test_file_and_command_line_parse_to_the_same_flags(self, tmp_path):
        parser = cli.build_parser()
        for command, subparser in parser._subparsers._group_actions[0].choices.items():
            flags = {act.option_strings[0]: act for act in subparser._actions if act.nargs != 0}
            assert {act.dest for act in flags.values()} <= PARITY_VALUES.keys(), command
            cfg = tmp_path / f"{command}.txt"
            cfg.write_text("".join(f"{act.dest}={PARITY_VALUES[act.dest]}\n" for act in flags.values()))
            from_file = parser.parse_args(cli.apply_config_file(parser, ["--config", str(cfg), command]))
            argv = [f"{flag}={PARITY_VALUES[act.dest]}" for flag, act in flags.items()]
            from_line = parser.parse_args([command, *argv])
            assert vars(from_file) == {**vars(from_line), "config": str(cfg)}
            for act in flags.values():  # each value moved its flag off the default
                assert getattr(from_file, act.dest) != act.default, (command, act.dest)


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
        hessian = dense_hessian(run.model, run.params, run.train_ds.subset(np.arange(20) * 75 // 20))
        smallest = float(np.linalg.eigh(hessian.matrix)[0][0])
        assert float(manifest["lambda_min"]) == smallest
        assert float(manifest["lam"]) == hessian.default_damping() + max(0.0, -1.1 * smallest)
        assert cli.main(base) == 0
        manifest = read_key_value(run_dir / "manifest_rank_test2_grad-cos.txt")
        assert [manifest["lambda_min"], manifest["hessian_examples"]] == ["unused", "unused"]

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
        assert manifest["hessian_examples"] == ("unused" if lam == "unused" else "10")

    @pytest.mark.parametrize("method", ["influence", "relatif"])
    def test_library_default_damping_ranks_as_the_cli(self, run_dir, method, capsys):
        argv = ["rank", "--run", str(run_dir), "--test-index", "4", "--method", method]
        assert cli.main([*argv, "--hessian-examples", "20"]) == 0
        run = cli.Run(run_dir)
        hessian = dense_hessian(run.model, run.params, run.train_ds.subset(np.arange(20) * 75 // 20))
        assert np.linalg.eigvalsh(hessian.matrix)[0] < 0.0  # indefinite: the default must damp
        expected = rank_training_set(
            run.model, run.params, run.train_ds, run.test_example(4), method, hessian=hessian
        )
        table = read_rank_table(run_dir / "tables" / f"rank_test4_{method}.csv")
        assert table == [(r.train_index, r.score) for r in expected.records]

    @pytest.mark.parametrize("examples, used", [(20, np.arange(20) * 75 // 20), (100, None)], ids=["k<N", "k>=N"])
    def test_hessian_is_built_over_evenly_spaced_examples_of_every_class(self, run_dir, examples, used, capsys):
        argv = ["rank", "--run", str(run_dir), "--test-index", "6", "--method", "influence"]
        assert cli.main([*argv, "--hessian-examples", str(examples)]) == 0
        run = cli.Run(run_dir)
        labels = run.train_ds.y
        assert np.array_equal(labels, np.sort(labels))  # class-ordered: a prefix of 20 is all class 0
        subset = run.train_ds if used is None else run.train_ds.subset(used)  # k >= N: every example
        assert set(subset.y) == set(labels)
        hessian = dense_hessian(run.model, run.params, subset)
        expected = rank_training_set(
            run.model, run.params, run.train_ds, run.test_example(6), "influence", hessian=hessian
        )
        table = read_rank_table(run_dir / "tables" / "rank_test6_influence.csv")
        assert table == [(r.train_index, r.score) for r in expected.records]
        manifest = read_key_value(run_dir / "manifest_rank_test6_influence.txt")
        assert manifest["hessian_examples"] == str(len(subset))

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
        cost, error = capsys.readouterr().err.strip().splitlines()  # the Hessian's cost, then the error
        assert cost.startswith("dense Hessian: 1299 columns over 10 examples in ")
        assert "--lam" in error and "smallest eigenvalue" in error

    @pytest.mark.parametrize("method", ["influence", "relatif"])
    def test_hessian_cost_goes_to_stderr_and_into_no_file(self, run_dir, method, capsys):
        argv = ["rank", "--run", str(run_dir), "--test-index", "5", "--method", method, "--hessian-examples", "6"]
        written = []
        for _ in range(2):
            assert cli.main(argv) == 0
            captured = capsys.readouterr()
            assert re.fullmatch(r"dense Hessian: 1299 columns over 6 examples in \d+\.\d\d s\n", captured.err)
            assert "Hessian" not in captured.out
            written.append([(run_dir / name).read_bytes() for name in (
                f"tables/rank_test5_{method}.csv", f"manifest_rank_test5_{method}.txt")])
        assert written[0] == written[1]
        assert not any(b"dense Hessian" in data for data in written[0])


class TestSaliency:
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
            (["saliency", "--run", "RUN", "--train-index", "5", "--test-index", "5", "--sigma", "0"],
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
        # --run and --out are locations, rank --top shapes no artifact, and
        # the run record of a synthetic run holds no CIFAR-10 flag
        unrecorded = {"help", "run", "out", "top", *CIFAR_KEYS}
        assert {a.dest for a in subparser._actions} - unrecorded <= keys.keys()

    @pytest.mark.parametrize(
        "argv, manifest, noise_seed",
        [
            (["saliency", "--run", "RUN", "--train-index", "2", "--test-index", "0"],
             "{RUN}/manifest_saliency_train2_test0.txt", True),
            (["explain", "--run", "RUN", "--test-index", "1", "--top-r", "1"],
             "{RUN}/manifest_explain_test1.txt", True),
            (["insertion", "--run", "RUN", "--ks", "100", "--tests", "1", "--top-m", "1"],
             "{RUN}/manifest_insertion.txt", False),
            (["patch-sweep", "--size", "12", "--train-per-class", "4", "--holdout-per-class", "0",
              "--test-per-class", "2", "--epochs", "1", "--fractions", "0", "--probes", "1", "--harmful", "1",
              "--out", "OUT"],
             "{OUT}/manifest.txt", False),
        ],
    )
    def test_sigma_zero_manifest_records_no_samples_or_noise_seed_it_was_given(
        self, argv, manifest, noise_seed, run_dir, tmp_path, capsys
    ):
        # a sigma 0 map is one sample and draws no noise, so --samples, and a
        # --seed that seeds only noise, shape no artifact
        places = {"RUN": str(run_dir), "OUT": str(tmp_path / "out")}
        argv = [places.get(a, a) for a in argv] + ["--sigma", "0"]
        path, written = Path(manifest.format(**places)), []
        for samples, seed in (("1", "3"), ("4", "8" if noise_seed else "3")):
            assert cli.main([*argv, "--samples", samples, "--seed", seed]) == 0
            written.append(path.read_bytes())
        assert written[0] == written[1]
        keys = read_key_value(path)
        assert keys["samples"] == "1"
        assert (keys["seed"] == "unused") == noise_seed


def assert_same_splits(run, splits):
    for restored, expected in zip((run.train_ds, run.holdout, run.test_ds), splits, strict=True):
        assert np.array_equal(restored.X, expected.X) and np.array_equal(restored.y, expected.y)


class TestWarnings:
    @pytest.mark.parametrize("fails", [False, True])
    def test_library_warnings_print_one_line_each_even_when_the_command_fails(
        self, fails, run_dir, monkeypatch, capsys
    ):
        rank = cli.rank_training_set

        def warning_rank(*args, **kwargs):
            warnings.warn("skipped 2 training examples with degenerate gradients", RuntimeWarning)
            if fails:
                raise InsufficientDampingError(0.5, -1.0)
            return rank(*args, **kwargs)

        monkeypatch.setattr(cli, "rank_training_set", warning_rank)
        code = cli.main(["rank", "--run", str(run_dir), "--test-index", "0"])
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: skipped 2 training examples with degenerate gradients"
        assert (code, len(err)) == ((1, 2) if fails else (0, 1))


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
        assert_same_splits(run, load_cifar10_binary(cifar_dir, [2, 0], 1000, 5))
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

    def test_repeated_manifest_key_is_data_error(self, run_dir, tmp_path, capsys):
        (tmp_path / "manifest.txt").write_text((run_dir / "manifest.txt").read_text() + "seed=1\n")
        (tmp_path / "params.npy").write_bytes((run_dir / "params.npy").read_bytes())
        assert cli.main(["rank", "--run", str(tmp_path), "--test-index", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot restore run" in err and "'seed' given twice" in err

    def test_parent_format_synthetic_manifest_restores_the_same_data(self, tmp_path, capsys):
        manifest = (
            "command=train\nseed=3\ndata=synthetic\nsize=12\nclasses=3\nnoise=0.05\n"
            "train_per_class=15\nholdout_per_class=4\ntest_per_class=4\n"
            "data_seed=18063667083137579888\narch=tiny-cnn\ninput_shape=1x12x12\nnum_classes=3\n"
            "lr=0.2\nepochs=2\nbatch_size=32\nlr_decay=0.93\nloss=cross-entropy\n"
            "train_seed=10770821970221957459\nnum_params=1299\n"
            "final_train_accuracy=0.3333333333333333\ntest_accuracy=0.3333333333333333\n"
        )
        (tmp_path / "manifest.txt").write_text(manifest)
        np.save(tmp_path / "params.npy", np.zeros(1299))
        run = cli.Run(tmp_path)
        spec = SyntheticShapesSpec(
            size=12, num_classes=3, noise=0.05, train_per_class=15, holdout_per_class=4,
            test_per_class=4, seed=18063667083137579888,
        )
        assert_same_splits(run, generate_synthetic(spec))
        assert (run.arch.input_shape, run.arch.num_classes, run.model.num_params) == ((1, 12, 12), 3, 1299)
        config = run.config
        assert (config.lr, config.epochs, config.batch_size, config.lr_decay) == (0.2, 2, 32, 0.93)
        assert config.seed == 10770821970221957459
        # a run of the removed mse loss is refused, not restored as a cross-entropy model
        (tmp_path / "manifest.txt").write_text(manifest.replace("loss=cross-entropy", "loss=mse"))
        assert cli.main(["rank", "--run", str(tmp_path), "--test-index", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot restore run from {tmp_path}: loss=mse, but the one loss is cross-entropy\n"

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
        assert_same_splits(run, load_cifar10_binary(cifar_dir, [1, 2], 12, 2))
        assert (len(run.train_ds), len(run.holdout), len(run.test_ds)) == (20, 4, 8)
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
    )
    @example(data="cifar10", seed=0, counts=(1, 1, 1, 1, 1), noise=0.0, data_dir="--", labels=[0], lr=1.0, lr_decay=1.0)
    def test_record_parses_back_to_the_same_values(self, tmp_path, data, seed, counts, noise, data_dir, labels, lr, lr_decay):
        size, train_per_class, holdout_per_class, cap, epochs = counts
        flags = [
            "train", "--data", data, "--seed", str(seed), "--size", str(size),
            "--classes", str(2 + size % 2), "--noise", repr(noise),
            "--train-per-class", str(train_per_class), "--holdout-per-class", str(holdout_per_class - 1),
            "--test-per-class", str(cap), f"--data-dir={data_dir}",
            "--cifar-classes", ",".join(map(str, labels)), "--per-class-cap", str(cap),
            "--lr", repr(lr), "--epochs", str(epochs), "--batch-size", str(cap),
            "--lr-decay", repr(lr_decay), "--out", "unused",
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
