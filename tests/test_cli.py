"""End-to-end checks of the command-line interface.

Commands run in process through cli.main so the suite stays fast; one test
goes through a real subprocess to prove the console-script wiring. The
recurring theme is byte-level reproducibility: a rerun with the same seed
must recreate every artifact exactly.
"""

import subprocess
import sys

import numpy as np
import pytest

from tfa import cli
from tfa.outputs import read_key_value
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
        lines = (out / "tables" / "rank_test0_grad-cos.csv").read_text().strip().splitlines()
        table = [(int(i), float(score)) for i, _, score in (l.split(",") for l in lines[1:])]
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
