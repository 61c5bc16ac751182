"""Command-line interface.

One `tfa` command with subcommands covering the full workflow: train a
model on synthetic shapes or a CIFAR-10 subset, rank training examples for
a test prediction, render saliency maps, run the paired insertion and
patch-sweep experiments, explain a misclassification, and print the
closed-form ridge toy tables.

Every subcommand that writes artifacts drops a key=value manifest of its
fully resolved configuration next to them, and all of its randomness
derives from one master seed, so a rerun reproduces each output file byte
for byte. Exit codes: 0 success, 1 usage error, 2 data or format error.

A run directory's `manifest.txt` is its run record: `train` writes the
seed and every data and training flag under its dest name (`--data-dir` as
an absolute path), and `rank`, `saliency`, `insertion` and `explain` parse
those entries back through the `train` flags, so the parser is the only
schema of a run. One function, build_run, turns those flags into the
training config, the model and the library's (train, holdout, test) splits
for every command. The other manifests are likewise the parsed flags by
dest, in parser order (`patch-sweep` puts its run record first), followed
by the command's results; a result may stand for a flag's resolved value,
such as `rank`'s damping or the one sample of every sigma 0 map, and a flag
that shaped nothing, such as the `--seed` of `saliency` and `explain` at
sigma 0, is recorded as `unused`. Only the flags that name where a command
reads and writes (`--config`, `--run`, `--out`), the one that shapes no
artifact (`rank --top`) and the data flags of the other data kind go
unrecorded. The dest=value lines of `--config FILE` are parsed as flags of
the chosen command, given before its own. Library warnings print on stderr
as one `warning: ...` line each, also when the command then fails.
"""

import argparse
import math
import os
import sys
import warnings
from dataclasses import astuple, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .datasets import NUM_LABELS, FormatError, SyntheticShapesSpec, generate_synthetic, load_cifar10_binary
from .harness import (
    FILL_MODES,
    InterventionConfig,
    PairedResult,
    PatchSpec,
    PatchSweepRow,
    check_patch,
    explain_misclassification,
    paired_insertion_experiment,
    patch_sweep,
)
from .models import Model, ParamVector, TrainConfig, tiny_cnn, train
from .outputs import format_csv, read_key_value, write_csv, write_grid_artifacts, write_manifest
from .ridge import ToySetup, feature_contributions, representer_coefficients
from .rng import child_seed
from .saliency import channel_aggregate, smoothgrad_saliency
from .tda import HESSIAN_METHODS, METHODS, InsufficientDampingError, dense_hessian, rank_training_set


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route through our own
    # exit-code scheme instead
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):  # argparse drops the `--` of `--flag=--`, leaving a one-value flag []
        if (values := super()._get_values(action, arg_strings)) == [] and action.nargs is None:
            raise argparse.ArgumentError(action, "expected one value, got '--'")
        return values


def checked(convert, ok, rule):
    """An argparse type: `convert` the text and require `ok` of the value."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def split_list(text, convert) -> list:
    return [convert(v) for v in str(text).split(",") if v.strip()]


def checked_list(convert, ok, rule):
    """checked() for a comma-separated list; keeps the text, which manifests record."""
    check = checked(convert, ok, rule)

    def parse(text):
        if not split_list(text, check):
            raise argparse.ArgumentTypeError("needs at least one value")
        return text

    parse.__name__ = f"{convert.__name__} list"
    return parse


positive_int = checked(int, lambda v: v > 0, "positive")
non_negative_int = checked(int, lambda v: v >= 0, "non-negative")
at_least_two = checked(int, lambda v: v >= 2, "at least 2")
finite_float = checked(float, math.isfinite, "finite")
positive_float = checked(float, lambda v: math.isfinite(v) and v > 0, "positive and finite")
non_negative_float = checked(float, lambda v: math.isfinite(v) and v >= 0, "non-negative and finite")
percent_list = checked_list(int, lambda v: 0 < v <= 100, "in (0, 100]")
unit_list = checked_list(float, lambda v: 0 <= v <= 1, "in [0, 1]")
label_list = checked_list(int, lambda v: 0 <= v < NUM_LABELS, f"a label in [0, {NUM_LABELS})")
# manifest lines are split on line breaks and stripped; refuse what they cannot hold
recordable_path = checked(
    os.path.abspath, lambda p: [p] == p.splitlines() == [p.strip()], "a path with no line break or trailing space"
)


# The run record: the keys, by flag dest, that `train` and `patch-sweep`
# write to manifest.txt, and that Run parses back through the `train` flags,
# so each default, type and choice lives only in its add_argument call.
# TRAIN_KEYS are also TrainConfig field names.
RUN_KEYS = {
    "synthetic": ("size", "classes", "noise", "train_per_class", "holdout_per_class", "test_per_class"),
    "cifar10": ("data_dir", "cifar_classes", "per_class_cap", "holdout_per_class"),
}
TRAIN_KEYS = ("lr", "epochs", "batch_size", "lr_decay")


def add_data_flags(p):
    p.add_argument("--data", choices=tuple(RUN_KEYS), default="synthetic")
    p.add_argument("--size", type=int, default=32, help="synthetic image size")
    p.add_argument("--classes", type=int, default=3, help="synthetic class count")
    p.add_argument("--noise", type=finite_float, default=0.05)
    p.add_argument("--train-per-class", type=int, default=200)
    p.add_argument("--holdout-per-class", type=non_negative_int, default=20)
    p.add_argument("--test-per-class", type=int, default=40)
    p.add_argument("--data-dir", type=recordable_path, help="directory with CIFAR-10 binary batches")
    p.add_argument("--cifar-classes", type=label_list, default="0,1,2", help="comma-separated label subset")
    p.add_argument("--per-class-cap", type=positive_int, default=1000)


def add_train_flags(p):
    p.add_argument("--lr", type=finite_float, default=0.25)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr-decay", type=finite_float, default=0.93)


def add_smoothing_flags(p, samples_default=10):
    p.add_argument("--sigma", type=non_negative_float, default=0.05)
    p.add_argument("--samples", type=positive_int, default=samples_default)


def build_parser() -> Parser:
    parser = Parser(prog="tfa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tfa {__version__}")
    parser.add_argument(
        "--config",
        help="key=value file of the command's flags by dest; explicit flags override it",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("train", help="train a model and create a run directory")
    add_data_flags(p)
    add_train_flags(p)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="run directory to create")

    p = sub.add_parser("rank", help="rank training examples for one test example")
    p.add_argument("--run", required=True, help="run directory from `tfa train`")
    p.add_argument("--test-index", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="grad-cos")
    p.add_argument("--top", type=positive_int, default=10, help="rows to print per tail")
    p.add_argument("--epsilon", type=positive_float, default=1e-3)
    p.add_argument("--lam", type=finite_float, help="Hessian damping (default: auto, kept positive definite)")
    p.add_argument("--hessian-examples", type=positive_int, default=200, help="training subset used for the dense Hessian")

    p = sub.add_parser("saliency", help="saliency map for one train/test pair")
    p.add_argument("--run", required=True)
    p.add_argument("--train-index", type=int, required=True)
    p.add_argument("--test-index", type=int, required=True)
    add_smoothing_flags(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("insertion", help="paired topk-vs-random insertion experiment")
    p.add_argument("--run", required=True)
    p.add_argument("--ks", type=percent_list, default="10,20,30,40,50,100", help="comma-separated k percents")
    p.add_argument("--tests", type=positive_int, default=20)
    p.add_argument("--top-m", type=positive_int, default=10)
    p.add_argument("--lr-step", type=finite_float, default=1e-3)
    add_smoothing_flags(p, samples_default=30)
    p.add_argument("--fill", choices=FILL_MODES, default="dataset-mean")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("explain", help="harmful/helpful report for one test example")
    p.add_argument("--run", required=True)
    p.add_argument("--test-index", type=int, required=True)
    p.add_argument("--top-r", type=positive_int, default=5)
    add_smoothing_flags(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("patch-sweep", help="shortcut-patch prevalence sweep")
    add_data_flags(p)
    add_train_flags(p)
    p.add_argument("--fractions", type=unit_list, default="0,0.1,0.25,0.4,0.55,0.7,0.85,0.95")
    p.add_argument("--patch-size", type=positive_int, default=5)
    p.add_argument("--patch-color", type=unit_list, default="0.95", help="comma-separated per-channel values")
    p.add_argument("--target-class", type=int, default=0)
    p.add_argument("--probe-class", type=int, default=1)
    p.add_argument("--probes", type=positive_int, default=5)
    p.add_argument("--harmful", type=positive_int, default=10)
    add_smoothing_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("toy-ridge", help="closed-form representer tables for the planted toy")
    p.add_argument("--n", type=at_least_two, default=5, help="total examples (n-1 on the axis)")
    p.add_argument("--c", type=finite_float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=positive_float, default=1.0)
    p.add_argument("--t", type=finite_float, default=1.0, help="test point (0, t)")
    p.add_argument("--out", help="optional directory for the CSV")
    return parser


def as_flags(subparser, pairs) -> list:
    """`--flag=value` for each (dest, value) pair whose dest `subparser` takes; `-` in a dest reads as `_`."""
    options = {act.dest: act.option_strings[0] for act in subparser._actions if act.nargs != 0}
    pairs = ((key.replace("-", "_"), value) for key, value in pairs)
    return [f"{options[dest]}={value}" for dest, value in pairs if dest in options]


def apply_config_file(parser, argv) -> list:
    """argv with each --config pair that the chosen subcommand takes as `--flag=value` right after its name.

    argparse then parses those as the command line, and explicit flags, coming later, win.
    A line that is not key=value, or a key that no subcommand's flag takes, is a usage error.
    """
    probe = Parser(add_help=False, allow_abbrev=False)  # `--c 3` is toy-ridge's --c
    probe.add_argument("--config")
    probe.add_argument("command", nargs="?")
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    try:
        pairs = read_key_value(known.config)
    except ValueError as e:
        raise UsageError(str(e)) from e
    subparsers = parser._subparsers._group_actions[0].choices
    for key in pairs:
        if not any(as_flags(p, [(key, "")]) for p in subparsers.values()):
            raise UsageError(f"{known.config}: {key}: no subcommand has this flag")
    if known.command not in subparsers:
        return argv
    split = len(argv) - len(known.rest)  # just past the subcommand's name
    return [*argv[:split], *as_flags(subparsers[known.command], pairs.items()), *argv[split:]]


def build_run(args):
    """The run record, training config, tiny-CNN and (train, holdout, test) splits that `args` describe."""
    record = run_record(args)
    try:
        config = TrainConfig(seed=child_seed(args.seed, "train"), **{key: getattr(args, key) for key in TRAIN_KEYS})
    except ValueError as e:
        raise UsageError(f"bad training flags: {e}") from e
    if args.data == "synthetic":
        try:
            sizes = {key: record[key] for key in RUN_KEYS["synthetic"] if key != "classes"}
            spec = SyntheticShapesSpec(num_classes=args.classes, seed=record["data_seed"], **sizes)
        except ValueError as e:
            raise UsageError(f"bad data flags: {e}") from e
        classes = range(args.classes)
        train_ds, holdout, test_ds = generate_synthetic(spec)
    else:
        if not args.data_dir:
            raise UsageError("--data cifar10 needs --data-dir")
        classes = split_list(args.cifar_classes, int)
        train_ds, holdout, test_ds = load_cifar10_binary(
            args.data_dir, classes, args.per_class_cap, args.holdout_per_class
        )
        # the model has one output per listed class, so each needs training images
        if np.bincount(train_ds.y, minlength=len(classes)).min() == 0 or not len(test_ds):
            raise UsageError(
                f"--cifar-classes {args.cifar_classes}, --per-class-cap {args.per_class_cap} and "
                f"--holdout-per-class {args.holdout_per_class} leave a class with no training images "
                "or an empty test split"
            )
    return record, config, tiny_cnn(train_ds.X.shape[1:], len(classes)), train_ds, holdout, test_ds


def run_record(args) -> dict:
    """The seed, data and training flags of `args` as manifest entries, keyed by dest."""
    record = {key: getattr(args, key) for key in ("seed", "data", *RUN_KEYS[args.data])}
    record["data_seed"] = child_seed(args.seed, "data")  # derived; Run derives it again
    record.update((key, getattr(args, key)) for key in TRAIN_KEYS)
    return record


def parsed_flags(args, *unrecorded) -> dict:
    """The subcommand's parsed flags by dest, in parser order, less `unrecorded`.

    --config, --run and --out name where a command reads and writes, not
    what it computes, so they are never included.
    """
    skip = {"config", "command", "run", "out", *unrecorded}
    return {dest: value for dest, value in vars(args).items() if dest not in skip}


def smoothing_flags(args, *unrecorded, noise_seed=False) -> dict:
    """parsed_flags with the smoothing flags as they shaped the maps.

    A map at sigma 0 is one sample and draws no noise, so it records
    samples=1, and seed=unused where --seed seeds only that noise (noise_seed).
    """
    flags = parsed_flags(args, *unrecorded)
    if args.sigma == 0:
        flags["samples"] = 1
        if noise_seed:
            flags["seed"] = "unused"
    return flags


def parse_run_record(manifest) -> argparse.Namespace:
    """Inverse of run_record: parse a manifest's entries back through the `train` flags."""
    keys = ("seed", "data", *RUN_KEYS.get(manifest["data"], ()), *TRAIN_KEYS)
    parser = build_parser()
    argv = as_flags(parser._subparsers._group_actions[0].choices["train"], ((key, manifest[key]) for key in keys))
    # --out is required by `train` but is not part of the record
    return parser.parse_args(["train", *argv, "--out=."])


def cmd_train(args) -> int:
    record, config, arch, train_ds, _, test_ds = build_run(args)
    model = Model(arch)
    params, _ = train(train_ds, arch, config, epoch_accuracy=False)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "params.npy", params.data)
    manifest = {
        "command": "train",
        **record,
        "arch": "tiny-cnn",
        "input_shape": "x".join(str(d) for d in arch.input_shape),
        "num_classes": arch.num_classes,
        "train_seed": config.seed,
        "num_params": model.num_params,
        "final_train_accuracy": model.accuracy(params, train_ds),
        "test_accuracy": model.accuracy(params, test_ds),
    }
    write_manifest(out / "manifest.txt", manifest)
    print(f"trained {model.num_params} parameters; test accuracy {manifest['test_accuracy']:.3f}")
    print(f"run directory: {out}")
    return 0


class Run:
    """A trained run directory: manifest, parameters and rebuilt datasets."""

    def __init__(self, path):
        self.path = Path(path)
        manifest_path = self.path / "manifest.txt"
        if not manifest_path.exists():
            raise FormatError(f"{self.path} has no manifest.txt (not a run directory?)")
        try:
            self.manifest = read_key_value(manifest_path)
            if self.manifest.get("loss", "cross-entropy") != "cross-entropy":  # a run of a removed loss kind
                raise ValueError(f"loss={self.manifest['loss']}, but the one loss is cross-entropy")
            _, self.config, self.arch, self.train_ds, self.holdout, self.test_ds = build_run(
                parse_run_record(self.manifest)
            )
            self.model = Model(self.arch)
            self.params = ParamVector(np.load(self.path / "params.npy"), self.model.layout)
            if self.params.size != self.model.num_params:
                raise ValueError(f"params.npy holds {self.params.size} values, the model has {self.model.num_params}")
        except (KeyError, ValueError, OSError, UsageError) as e:
            raise FormatError(f"cannot restore run from {self.path}: {e}") from e

    def test_example(self, index):
        if not 0 <= index < len(self.test_ds):
            raise FormatError(f"test index {index} out of range [0, {len(self.test_ds)})")
        return self.test_ds.example(index)


def cmd_rank(args) -> int:
    run = Run(args.run)
    z_test = run.test_example(args.test_index)
    hessian = None
    if args.method in HESSIAN_METHODS:
        k = min(args.hessian_examples, len(run.train_ds))  # evenly spaced, so every class of a class-ordered split
        subset = run.train_ds.subset(np.arange(k) * len(run.train_ds) // k)
        start = perf_counter()
        hessian = dense_hessian(run.model, run.params, subset)
        seconds = perf_counter() - start  # a timing: stderr only, never an artifact
        print(f"dense Hessian: {hessian.dim} columns over {len(subset)} examples in {seconds:.2f} s", file=sys.stderr)
    try:
        ranking = rank_training_set(
            run.model,
            run.params,
            run.train_ds,
            z_test,
            args.method,
            epsilon=args.epsilon,
            hessian=hessian,
            lam=args.lam,
        )
    except InsufficientDampingError as e:
        raise UsageError(f"--lam {args.lam}: {e}") from e
    rows = [(r.train_index, r.method, r.score) for r in ranking.records]
    table = run.path / "tables" / f"rank_test{args.test_index}_{args.method}.csv"
    write_csv(table, ("train_index", "method", "score"), rows)
    # a result replaces its flag's entry; a flag that shaped no score is recorded as unused
    results = {
        "epsilon": args.epsilon if args.method == "grad-effect" else "unused",
        "lam": "unused" if hessian is None else (hessian.damping() if args.lam is None else args.lam),
        "hessian_examples": "unused" if hessian is None else len(subset),
        "lambda_min": "unused" if hessian is None else hessian.lambda_min,
        "skipped": len(ranking.skipped),
    }
    manifest = {"command": "rank", **parsed_flags(args, "top"), **results}
    write_manifest(run.path / f"manifest_rank_test{args.test_index}_{args.method}.txt", manifest)
    print(f"wrote {table}")
    for r in ranking.helpful(args.top):
        print(f"  helpful train[{r.train_index}] score {r.score:+.4f}")
    for r in ranking.harmful(args.top):
        print(f"  harmful train[{r.train_index}] score {r.score:+.4f}")
    return 0


def cmd_saliency(args) -> int:
    run = Run(args.run)
    if not 0 <= args.train_index < len(run.train_ds):
        raise FormatError(f"train index {args.train_index} out of range [0, {len(run.train_ds)})")
    z_train = run.train_ds.example(args.train_index)
    z_test = run.test_example(args.test_index)
    sal = smoothgrad_saliency(run.model, run.params, z_train, z_test, args.sigma, args.samples, args.seed)
    stem = run.path / "maps" / f"saliency_train{args.train_index}_test{args.test_index}"
    write_grid_artifacts(stem, channel_aggregate(sal))
    manifest = {"command": "saliency", **smoothing_flags(args, noise_seed=True)}
    write_manifest(run.path / f"manifest_saliency_train{args.train_index}_test{args.test_index}.txt", manifest)
    print(f"wrote {stem}.pgm and {stem}.csv")
    return 0


def cmd_insertion(args) -> int:
    run = Run(args.run)
    if run.holdout is None:
        raise FormatError("this run has no holdout pool; retrain with --holdout-per-class > 0")
    try:
        config = InterventionConfig(
            k_percents=tuple(split_list(args.ks, int)),
            num_tests=args.tests,
            top_m=args.top_m,
            lr_step=args.lr_step,
            sigma=args.sigma,
            samples=args.samples,
            seed=args.seed,
            fill=args.fill,
        )
    except ValueError as e:
        raise UsageError(f"--ks {args.ks}: {e}") from e
    results = paired_insertion_experiment(run.model, run.params, run.holdout, run.test_ds, config)
    table = run.path / "tables" / "insertion.csv"
    write_csv(table, [f.name for f in fields(PairedResult)], [astuple(r) for r in results])
    write_manifest(run.path / "manifest_insertion.txt", {"command": "insertion", **smoothing_flags(args)})
    print(f"wrote {table}")
    for r in results:
        print(
            f"  k={r.k:5.1f}  d(T-R)={r.mean_paired_delta:+.4f} "
            f"[{r.mean_paired_delta - r.ci_half_width:+.4f}, {r.mean_paired_delta + r.ci_half_width:+.4f}]"
        )
    return 0


def cmd_explain(args) -> int:
    run = Run(args.run)
    z_test = run.test_example(args.test_index)
    report = explain_misclassification(
        run.model,
        run.params,
        run.train_ds,
        z_test,
        top_r=args.top_r,
        sigma=args.sigma,
        samples=args.samples,
        seed=args.seed,
        test_index=args.test_index,
    )
    rows = [("helpful", r.train_index, r.score) for r in report.helpful]
    rows += [("harmful", r.train_index, r.score) for r in report.harmful]
    table = run.path / "tables" / f"explain_test{args.test_index}.csv"
    write_csv(table, ("tail", "train_index", "score"), rows)
    for idx, sal in report.maps.items():
        write_grid_artifacts(
            run.path / "maps" / f"explain_test{args.test_index}_train{idx}",
            channel_aggregate(sal),
        )
    write_manifest(
        run.path / f"manifest_explain_test{args.test_index}.txt",
        {
            "command": "explain",
            **smoothing_flags(args, noise_seed=True),
            "predicted_class": report.predicted_class,
            "true_class": report.true_class,
            "correctly_classified": report.correctly_classified,
        },
    )
    state = "correct" if report.correctly_classified else "misclassified"
    print(
        f"test[{args.test_index}] predicted {report.predicted_class}, "
        f"true {report.true_class} ({state})"
    )
    print(f"wrote {table} and {len(report.maps)} maps")
    return 0


def cmd_patch_sweep(args) -> int:
    record, config, arch, train_ds, _, test_ds = build_run(args)  # the sweep reseeds config per fraction
    spec = PatchSpec(args.patch_size, tuple(split_list(args.patch_color, float)), args.target_class, fraction=0.0)
    fractions = split_list(args.fractions, float)
    try:
        check_patch(arch, spec, args.probe_class, fractions)
    except ValueError as e:
        flags = "--fractions, --patch-color, --patch-size, --target-class, --probe-class"
        raise UsageError(f"bad patch flags ({flags}): {e}") from e
    for flag, c in (("--probe-class", args.probe_class), ("--target-class", args.target_class)):
        if c not in test_ds.y:
            raise FormatError(f"the test split has no image of {flag} {c}")
    rows = patch_sweep(
        train_ds,
        test_ds,
        fractions,
        arch,
        config,
        spec,
        probe_class=args.probe_class,
        probe_count=args.probes,
        harmful_count=args.harmful,
        sigma=args.sigma,
        samples=args.samples,
        seed=child_seed(args.seed, "sweep"),
    )
    out = Path(args.out)
    table = out / "tables" / "patch_sweep.csv"
    write_csv(table, [f.name for f in fields(PatchSweepRow)], [astuple(r) for r in rows])
    # every data flag, recorded or not, is the run record's to write
    data_flags = (key for keys in RUN_KEYS.values() for key in keys)
    own = smoothing_flags(args, "seed", "data", *data_flags, *TRAIN_KEYS)
    write_manifest(out / "manifest.txt", {"command": "patch-sweep", **record, **own})
    print(f"wrote {table}")
    for r in rows:
        print(
            f"  fraction={r.fraction:.2f}  probe_acc={r.patched_probe_accuracy:.3f}  "
            f"patch_attr={r.patch_attribution_fraction:.4f}"
        )
    return 0


def cmd_toy_ridge(args) -> int:
    setup = ToySetup(axis_coords=(1.0,) * (args.n - 1), c=args.c, lam=args.lam)
    problem = setup.problem()
    x_test = setup.test_point(args.t)
    try:
        alpha = representer_coefficients(problem, x_test)
        beta = feature_contributions(problem, x_test)
    except ValueError as e:
        raise UsageError(f"--c {args.c} and --lambda {args.lam}: {e}") from e
    header = ("i", "y", "alpha", "beta_1", "beta_2")
    rows = [
        (i, problem.y[i], alpha[i], beta[i, 0], beta[i, 1]) for i in range(len(alpha))
    ]
    print(format_csv(header, rows), end="")
    prediction = float(alpha @ problem.y)
    print(f"# prediction alpha.y = {prediction!r}", file=sys.stderr)
    if args.out:
        write_csv(Path(args.out) / "tables" / "toy_ridge.csv", header, rows)
        write_manifest(Path(args.out) / "manifest.txt", {"command": "toy-ridge", **parsed_flags(args)})
    return 0


HANDLERS = {
    "train": cmd_train,
    "rank": cmd_rank,
    "saliency": cmd_saliency,
    "insertion": cmd_insertion,
    "explain": cmd_explain,
    "patch-sweep": cmd_patch_sweep,
    "toy-ridge": cmd_toy_ridge,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # library warnings print as one line each, before the error if the command fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            args = parser.parse_args(apply_config_file(parser, argv))
            if args.command is None:
                parser.print_usage(sys.stderr)
                return 1
            return HANDLERS[args.command](args)
        except UsageError as e:
            error, code = str(e), 1
        except (FormatError, FileNotFoundError) as e:
            error, code = f"error: {e}", 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
