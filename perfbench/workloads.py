"""The four benchmark workloads, their set-up, and their correctness checks.

Every workload drives the public `tfa` calls that the matching `tfa`
subcommand makes. Calls go through module attributes (`tfa_harness.
explain_misclassification`, never a name imported at load time) so that the
traced run sees them.

* train      `tfa train`: `train()` on the 32 px acceptance fixture.
* explain    `tfa explain`: `explain_misclassification` on misclassified
             test images against the 6-epoch checkpoint.
* insertion  `tfa insertion`: `paired_insertion_experiment` on the same
             checkpoint, at a reduced test count and top-M.
* influence  `tfa rank --method influence/relatif` on the 343-parameter
             single-block CNN of acceptance criterion 4.

Set-up (data, checkpoint, damped Hessian) runs in fresh processes, see
`run.setup_child`; an operation is one call of the workflow, timed from
outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tfa.datasets as tfa_datasets
import tfa.harness as tfa_harness
import tfa.models as tfa_models
import tfa.tda as tfa_tda

KS = (10, 20, 30, 40, 50, 100)
INSERTION_TESTS = 3
INSERTION_TOP_M = 2
EXPLAIN = dict(top_r=5, sigma=0.05, samples=10)
TRAIN_OP_EPOCHS = 2
CHECKPOINT_EPOCHS = 6

# Tolerances for comparisons against stored references. Reordering float64
# sums moves these results by ~1e-13 relative; a wrong result moves them by
# far more than 1e-6.
RTOL = 1e-6
ATOL_SCALE = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def spec32(seed):
    return tfa_datasets.SyntheticShapesSpec(
        size=32, noise=0.05, train_per_class=200, holdout_per_class=20,
        test_per_class=40, seed=seed,
    )


def spec12(seed):
    return tfa_datasets.SyntheticShapesSpec(
        size=12, noise=0.05, train_per_class=40, holdout_per_class=0,
        test_per_class=8, seed=seed,
    )


def arch32():
    return tfa_models.tiny_cnn((1, 32, 32), 3)


def arch12():
    m = tfa_models
    return m.ArchitectureSpec(
        layers=(m.Conv2d(1, 4, 3), m.Relu(), m.MaxPool(2), m.Flatten(), m.Dense(100, 3)),
        input_shape=(1, 12, 12),
        num_classes=3,
    )


def config32(seed, epochs):
    return tfa_models.TrainConfig(lr=0.25, epochs=epochs, batch_size=32, seed=seed, lr_decay=0.93)


def config12(seed):
    return tfa_models.TrainConfig(lr=0.2, epochs=3, batch_size=16, seed=seed)


def params_of(arch, data):
    return tfa_models.ParamVector(np.asarray(data, dtype=np.float64), tfa_models.Model(arch).layout)


def damped(model, params, dataset):
    """dense_hessian plus the damping rule of `tfa rank`: default + 1.1 |lambda_min|."""
    hessian = tfa_tda.dense_hessian(model, params, dataset)
    smallest = float(np.linalg.eigvalsh(hessian.matrix)[0])
    return hessian, hessian.default_damping() + max(0.0, -1.1 * smallest), smallest


# -- invariants ---------------------------------------------------------------


def finite(name, *values):
    for v in values:
        check(np.all(np.isfinite(np.asarray(v, dtype=np.float64))), f"{name}: non-finite output")


def check_ranking(name, ranking, n):
    """A full ranking: every index once, descending score, ties by ascending index."""
    check(not ranking.skipped, f"{name}: skipped degenerate gradients {ranking.skipped}")
    idx = [r.train_index for r in ranking.records]
    check(sorted(idx) == list(range(n)), f"{name}: ranking is not a permutation of {n}")
    keys = [(-r.score, r.train_index) for r in ranking.records]
    check(keys == sorted(keys), f"{name}: ranking is not in (descending score, index) order")
    finite(name, [r.score for r in ranking.records])


def check_extremes(name, helpful, harmful):
    """helpful is a ranking head, harmful a ranking tail read worst-first."""
    keys = [(-r.score, r.train_index) for r in helpful]
    check(keys == sorted(keys), f"{name}: helpful list out of order")
    keys = [(-r.score, r.train_index) for r in reversed(harmful)]
    check(keys == sorted(keys), f"{name}: harmful list out of order")
    check(min(r.score for r in helpful) >= max(r.score for r in harmful), f"{name}: extremes overlap")


def check_insertion(name, results, pairs):
    check([r.k for r in results] == [float(k) for k in KS], f"{name}: wrong k rows")
    for r in results:
        finite(name, r.mean_random, r.mean_topk, r.mean_paired_delta, r.ci_half_width)
        check(r.pairs == pairs, f"{name}: k={r.k:g} has {r.pairs} pairs, expected {pairs}")
    full = results[-1]
    # keeping 100% of the pixels makes the topk and random images identical
    check(
        full.mean_paired_delta == 0.0 and full.ci_half_width == 0.0
        and full.mean_topk == full.mean_random,
        f"{name}: k=100 row is not exactly zero",
    )


def ranking_scores(ranking, n):
    scores = np.empty(n)
    for r in ranking.records:
        scores[r.train_index] = r.score
    return scores


def compare(name, got, want, errors, rtol=RTOL, atol=None):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        errors.append(f"{name}: shape {got.shape} != reference {want.shape}")
        return
    if atol is None:
        atol = ATOL_SCALE * max(1.0, float(np.abs(want).max(initial=0.0)))
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(got - want)))
        errors.append(f"{name}: differs from reference by up to {worst:.3e}")


# per-key tolerances that differ from RTOL; an accuracy may move by one
# example when reordered sums flip a near-tied argmax
TOLERANCES = {"accuracies": dict(rtol=0.0, atol=2.0 / 600)}


def compare_reference(name, got, want):
    """Differences between a golden result and its stored reference.
    Integer entries (indices) must match exactly."""
    errors = []
    for key, expected in want.items():
        if key not in got:
            errors.append(f"{name}.{key}: missing")
        elif isinstance(expected, int) or (
            isinstance(expected, list) and expected and all(isinstance(v, int) for v in expected)
        ):
            if got[key] != expected:
                errors.append(f"{name}.{key}: {got[key]} != reference {expected}")
        else:
            compare(f"{name}.{key}", got[key], expected, errors, **TOLERANCES.get(key, {}))
    return errors


# -- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    unit: str  # what one work item is, for work_per_s
    aliases: dict  # this workflow's own names for generic metrics, printed beside them

    def setup(self, seed, out: Path) -> dict:
        """Build what the workload needs, in a fresh process; files go to out."""
        raise NotImplementedError

    def prepare(self, seed, out: Path, info: dict):
        """Load the set-up's files; info is the set-up's returned dict."""
        raise NotImplementedError

    def call(self, i):
        """Operation i: the timed workflow call. Returns its result."""
        raise NotImplementedError

    def verify(self, i, result) -> float:
        """Check operation i's result; returns its work items."""
        raise NotImplementedError

    def golden(self, ref_dir: Path) -> dict:
        """Outputs of the fixed reference case, compared to reference.json."""
        raise NotImplementedError


class TrainWorkload(Workload):
    def setup(self, seed, out):
        t0 = perf_counter()
        train_ds, _, _ = tfa_datasets.generate_synthetic(spec32(seed))
        return {"generate_s": perf_counter() - t0, "digest": float(train_ds.X.sum())}

    def prepare(self, seed, out, info):
        self.seed = seed
        self.data, _, _ = tfa_datasets.generate_synthetic(spec32(seed))
        check(float(self.data.X.sum()) == info["digest"], "train: data differs from the set-up's")
        arch = arch32()
        self.start_loss = tfa_models.Model(arch).mean_loss(tfa_models.init_params(arch, seed), self.data)
        self.first = None

    def call(self, i):
        return tfa_models.train(self.data, arch32(), config32(self.seed, TRAIN_OP_EPOCHS))

    def verify(self, i, result):
        params, history = result
        finite("train", params.data, history.losses, history.accuracies)
        # at lr 0.25 one epoch's mean loss may exceed the previous one's (seed
        # 2013: 0.967, then 1.011), so calls check the loss fell from where
        # training started; the reference case checks epoch over epoch
        check(history.losses[-1] < self.start_loss,
              f"train: loss {history.losses} did not fall below the initial {self.start_loss}")
        check(all(0.0 <= a <= 1.0 for a in history.accuracies), "train: accuracy outside [0, 1]")
        if self.first is None:
            self.first = params.data
        check(np.array_equal(params.data, self.first), "train: repeated run is not bitwise identical")
        return float(TRAIN_OP_EPOCHS * len(self.data))

    def golden(self, ref_dir):
        train_ds, _, _ = tfa_datasets.generate_synthetic(spec32(0))
        params, history = tfa_models.train(train_ds, arch32(), config32(0, TRAIN_OP_EPOCHS))
        check(history.losses[-1] < history.losses[0], "train golden: loss did not decrease")
        self.golden_params = params.data  # stored as reference_params.npy
        return {
            "losses": history.losses,
            "accuracies": history.accuracies,
            "param_sum": float(params.data.sum()),
            "param_norm": float(np.linalg.norm(params.data)),
            "param_head": params.data[:8].tolist(),
        }


class Checkpoint32(Workload):
    """Shared set-up of explain and insertion: the 6-epoch 32 px checkpoint."""

    def setup(self, seed, out):
        t0 = perf_counter()
        train_ds, _, _ = tfa_datasets.generate_synthetic(spec32(seed))
        t1 = perf_counter()
        params, history = tfa_models.train(train_ds, arch32(), config32(seed, CHECKPOINT_EPOCHS))
        t2 = perf_counter()
        np.save(out / "params.npy", params.data)
        return {"generate_s": t1 - t0, "train_s": t2 - t1, "losses": history.losses}

    def prepare(self, seed, out, info):
        self.seed = seed
        self.arch = arch32()
        self.model = tfa_models.Model(self.arch)
        self.train_ds, self.holdout, self.test_ds = tfa_datasets.generate_synthetic(spec32(seed))
        self.params = params_of(self.arch, np.load(out / "params.npy"))
        finite("checkpoint", self.params.data)

    def golden_inputs(self, ref_dir):
        arch = arch32()
        model = tfa_models.Model(arch)
        params = params_of(arch, np.load(ref_dir / "reference_params.npy"))
        train_ds, holdout, test_ds = tfa_datasets.generate_synthetic(spec32(0))
        return model, params, train_ds, holdout, test_ds


class ExplainWorkload(Checkpoint32):
    def prepare(self, seed, out, info):
        super().prepare(seed, out, info)
        wrong = np.flatnonzero(self.model.predict(self.params, self.test_ds.X) != self.test_ds.y)
        self.queries = wrong if len(wrong) else np.arange(len(self.test_ds))
        self.offset = int(np.random.default_rng(seed).integers(len(self.queries)))

    def query(self, i):
        return int(self.queries[(self.offset + i) % len(self.queries)])

    def call(self, i):
        t = self.query(i)
        return explain(self.model, self.params, self.train_ds, self.test_ds, t, seed=self.seed + i)

    def verify(self, i, report):
        t = self.query(i)
        check_explain(f"explain[test {t}]", report, self.train_ds)
        # spot-check two listed scores against the standalone scorer
        for rec in (report.helpful[0], report.harmful[0]):
            direct = tfa_tda.grad_cos(
                self.model, self.params, self.train_ds.example(rec.train_index), self.test_ds.example(t)
            )
            check(abs(direct - rec.score) <= 1e-9, f"explain[test {t}]: score of train {rec.train_index} "
                  f"{rec.score!r} != grad_cos {direct!r}")
        return 1.0

    def golden(self, ref_dir):
        model, params, train_ds, _, test_ds = self.golden_inputs(ref_dir)
        wrong = np.flatnonzero(model.predict(params, test_ds.X) != test_ds.y)
        t = int(wrong[0])
        report = explain(model, params, train_ds, test_ds, t, seed=0)
        check_explain("explain golden", report, train_ds)
        maps = [report.maps[k].values for k in sorted(report.maps)]
        return {
            "test_index": t,
            "helpful": [r.train_index for r in report.helpful],
            "helpful_scores": [r.score for r in report.helpful],
            "harmful": [r.train_index for r in report.harmful],
            "harmful_scores": [r.score for r in report.harmful],
            "map_sums": [float(m.sum()) for m in maps],
            "map_abs_sums": [float(np.abs(m).sum()) for m in maps],
            "map_norms": [float(np.linalg.norm(m)) for m in maps],
        }


def explain(model, params, train_ds, test_ds, t, seed):
    return tfa_harness.explain_misclassification(
        model, params, train_ds, test_ds.example(t), seed=seed, test_index=t, **EXPLAIN
    )


def check_explain(name, report, train_ds):
    r = EXPLAIN["top_r"]
    check(len(report.helpful) == r and len(report.harmful) == r, f"{name}: short extremes")
    check_extremes(name, report.helpful, report.harmful)
    listed = {rec.train_index for rec in (*report.helpful, *report.harmful)}
    check(set(report.maps) == listed, f"{name}: maps do not match the listed examples")
    for k, sal in report.maps.items():
        check(sal.values.shape == train_ds.X.shape[1:], f"{name}: map {k} has shape {sal.values.shape}")
        finite(f"{name} map {k}", sal.values)
    for rec in (*report.helpful, *report.harmful):
        check(-1.0 - 1e-12 <= rec.score <= 1.0 + 1e-12, f"{name}: cosine {rec.score} outside [-1, 1]")


class InsertionWorkload(Checkpoint32):
    def call(self, i):
        rng = np.random.default_rng((self.seed, i))
        tests = np.sort(rng.choice(len(self.test_ds), size=INSERTION_TESTS, replace=False))
        return insertion(self.model, self.params, self.holdout, self.test_ds.subset(tests), self.seed + i)

    def verify(self, i, results):
        pairs = INSERTION_TESTS * INSERTION_TOP_M
        check_insertion(f"insertion[op {i}]", results, pairs)
        return float(pairs)

    def golden(self, ref_dir):
        model, params, _, holdout, test_ds = self.golden_inputs(ref_dir)
        ranking = tfa_tda.rank_training_set(model, params, holdout, test_ds.example(0), "grad-cos")
        check_ranking("insertion golden", ranking, len(holdout))
        tests = np.arange(INSERTION_TESTS)
        results = insertion(model, params, holdout, test_ds.subset(tests), 0)
        check_insertion("insertion golden", results, INSERTION_TESTS * INSERTION_TOP_M)
        return {
            "holdout_scores": ranking_scores(ranking, len(holdout)).tolist(),
            "rows": [[r.mean_random, r.mean_topk, r.mean_paired_delta, r.ci_half_width] for r in results],
        }


def insertion(model, params, holdout, tests, seed):
    config = tfa_harness.InterventionConfig(
        k_percents=KS, num_tests=len(tests), top_m=INSERTION_TOP_M, lr_step=1e-3,
        sigma=0.05, samples=30, seed=seed,
    )
    return tfa_harness.paired_insertion_experiment(model, params, holdout, tests, config)


class InfluenceWorkload(Workload):
    def setup(self, seed, out):
        t0 = perf_counter()
        train_ds, _, _ = tfa_datasets.generate_synthetic(spec12(seed))
        arch = arch12()
        params, history = tfa_models.train(train_ds, arch, config12(seed))
        t1 = perf_counter()
        hessian, lam, smallest = damped(tfa_models.Model(arch), params, train_ds)
        t2 = perf_counter()
        np.save(out / "params.npy", params.data)
        np.save(out / "hessian.npy", hessian.matrix)
        return {"train_s": t1 - t0, "hessian_s": t2 - t1, "lam": lam, "lambda_min": smallest}

    def prepare(self, seed, out, info):
        self.arch = arch12()
        self.model = tfa_models.Model(self.arch)
        self.train_ds, _, self.test_ds = tfa_datasets.generate_synthetic(spec12(seed))
        self.params = params_of(self.arch, np.load(out / "params.npy"))
        self.hessian = tfa_tda.DampedHessian(np.load(out / "hessian.npy"))
        self.lam = info["lam"]
        check_hessian("influence", self.hessian, self.lam)
        self.offset = int(np.random.default_rng(seed).integers(len(self.test_ds)))

    def call(self, i):
        t = (self.offset + i) % len(self.test_ds)
        z_test = self.test_ds.example(t)
        return t, z_test, [
            tfa_tda.rank_training_set(
                self.model, self.params, self.train_ds, z_test, method, hessian=self.hessian, lam=self.lam
            )
            for method in ("influence", "relatif")
        ]

    def verify(self, i, result):
        t, z_test, (inf, rel) = result
        check_influence(f"influence[test {t}]", self.model, self.params, z_test, inf, rel, len(self.train_ds))
        return 1.0

    def golden(self, ref_dir):
        train_ds, _, test_ds = tfa_datasets.generate_synthetic(spec12(0))
        arch = arch12()
        params, history = tfa_models.train(train_ds, arch, config12(4))
        model = tfa_models.Model(arch)
        subset = train_ds.subset(range(30))
        hessian, lam, smallest = damped(model, params, subset)
        check_hessian("influence golden", hessian, lam)
        z_test = test_ds.example(0)
        inf, rel = [
            tfa_tda.rank_training_set(model, params, subset, z_test, method, hessian=hessian, lam=lam)
            for method in ("influence", "relatif")
        ]
        check_influence("influence golden", model, params, z_test, inf, rel, len(subset))
        return {
            "losses": history.losses,
            "hessian_trace": float(np.trace(hessian.matrix)),
            "hessian_fro": float(np.linalg.norm(hessian.matrix)),
            "lambda_min": smallest,
            "lam": lam,
            "influence_scores": ranking_scores(inf, len(subset)).tolist(),
            "relatif_scores": ranking_scores(rel, len(subset)).tolist(),
        }


def check_hessian(name, hessian, lam):
    finite(name, hessian.matrix)
    check(np.array_equal(hessian.matrix, hessian.matrix.T), f"{name}: Hessian is not symmetric")
    check(lam > 0.0, f"{name}: damping {lam} is not positive")


def check_influence(name, model, params, z_test, inf, rel, n):
    check_ranking(f"{name} influence", inf, n)
    check_ranking(f"{name} relatif", rel, n)
    # both are -g_test'v scaled by a positive factor, so signs agree, and
    # |relatif| <= ||g_test|| by Cauchy-Schwarz
    s_inf, s_rel = ranking_scores(inf, n), ranking_scores(rel, n)
    check(np.array_equal(np.sign(s_inf), np.sign(s_rel)), f"{name}: influence and relatif signs differ")
    g_norm = float(np.linalg.norm(tfa_tda.query_gradient(model, params, z_test)))
    check(np.abs(s_rel).max() <= g_norm * (1 + 1e-9), f"{name}: relatif exceeds ||g_test||")


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train",
            "the models SGD loop and batched autodiff kernels at n=32 and n=600; no tda, saliency or harness",
            "examples",
            {"work_per_s": "train_examples_per_s"},
        ),
        ExplainWorkload(
            "explain",
            "tda ranks 600 fresh n=1 gradients per query, then saliency maps the extremes",
            "queries",
            {"op_s_p50": "query_s_p50", "op_s_tail": "query_s_tail"},
        ),
        InsertionWorkload(
            "insertion",
            "saliency double backward and harness interventions dominate; tda re-ranks a 60-image pool",
            "pairs",
            {"work_per_s": "pairs_per_s"},
        ),
        InfluenceWorkload(
            "influence",
            "dense Hessian and damped Cholesky solves, which run in no other workload",
            "queries",
            {"op_s_p50": "query_s_p50", "op_s_tail": "query_s_tail", "setup.hessian_s": "hessian_s"},
        ),
    )
}
