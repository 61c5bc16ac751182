"""Per-layer timings taken by calling each layer directly, outside any workload.

These run after the traced passes, with tracing off, on inputs made from the
run's seed: the 32 px tiny CNN (2979 parameters) at its own layer shapes,
and the 343-parameter single-block CNN for the Hessian stages. Parameters
are freshly initialised, which changes no shape and no code path.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import tfa.autodiff as ad
import tfa.datasets as tfa_datasets
import tfa.harness as tfa_harness
import tfa.models as tfa_models
import tfa.saliency as tfa_saliency
import tfa.tda as tfa_tda

from workloads import arch12, arch32, spec12, spec32


def median_time(fn, min_reps=5, min_s=0.05, max_reps=200):
    """Median wall seconds of fn() over at least min_reps calls and min_s."""
    times = []
    began = perf_counter()
    while len(times) < min_reps or (perf_counter() - began < min_s and len(times) < max_reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def im2col_index(n, c, h, w, k):
    """Gather indices of the valid k x k patches, in (cin, kh, kw) column order."""
    base = np.arange(n * c * h * w).reshape(n, c, h, w)
    win = np.lib.stride_tricks.sliding_window_view(base, (k, k), axis=(2, 3))
    ho, wo = h - k + 1, w - k + 1
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * k * k)


def op_cases(n, rng):
    """(name, input arrays, record(graph nodes) -> output node) at tiny-CNN shapes."""
    idx = im2col_index(n, 8, 15, 15, 3)
    return [
        ("conv2d", [rng.random((n, 8, 15, 15)), rng.normal(size=(16, 8, 3, 3)), rng.normal(size=16)],
         lambda x, w, b: ad.conv2d(x, w, b)),
        ("maxpool2d", [rng.random((n, 8, 30, 30))], lambda x: ad.maxpool2d(x, 2)),
        ("relu", [rng.normal(size=(n, 8, 30, 30))], ad.relu),
        ("matmul", [rng.normal(size=(n, 576)), rng.normal(size=(576, 3))], ad.matmul),
        ("take", [rng.random((n, 8, 15, 15))], lambda x: ad.take(x, idx)),
        ("scatter", [rng.random(idx.shape)], lambda v: ad.scatter(v, idx, n * 8 * 15 * 15)),
        ("softmax_cross_entropy", [rng.normal(size=(n, 3))],
         lambda z: ad.softmax_cross_entropy(z, np.arange(n) % 3)),
    ]


def autodiff_ops(seed):
    out = {}
    rng = np.random.default_rng(seed)
    for n in (1, 32):
        for name, arrays, record in op_cases(n, rng):
            fwd, vjp = [], []
            began = perf_counter()
            while len(fwd) < 5 or (perf_counter() - began < 0.08 and len(fwd) < 200):
                graph = ad.Graph()
                leaves = [graph.leaf(a) for a in arrays]
                t0 = perf_counter()
                y = record(*leaves)
                t1 = perf_counter()
                root = ad.reduce_sum(ad.mul(y, graph.constant(np.ones(y.shape))))
                t2 = perf_counter()
                ad.backward(root, leaves)
                t3 = perf_counter()
                fwd.append(t1 - t0)
                vjp.append(t3 - t2)
            out[f"autodiff.{name}.fwd_us.n{n}"] = 1e6 * statistics.median(fwd)
            out[f"autodiff.{name}.vjp_us.n{n}"] = 1e6 * statistics.median(vjp)
    return out


def run(seed):
    out = autodiff_ops(seed)
    arch = arch32()
    model = tfa_models.Model(arch)
    params = tfa_models.init_params(arch, seed)
    gen_s = median_time(lambda: tfa_datasets.generate_synthetic(spec32(seed)), min_reps=3)
    out["datasets.generate_ms"] = 1e3 * gen_s
    train_ds, holdout, test_ds = tfa_datasets.generate_synthetic(spec32(seed))
    z_train, z_test = train_ds.example(0), test_ds.example(0)
    g_test = model.param_grad(params, z_test)

    # the pair-score graph every saliency sample builds: forward, first
    # sweep (parameter gradient), second sweep (input gradient)
    first, second, nodes = [], [], None
    for _ in range(10):
        graph = ad.Graph()
        theta = graph.leaf(params.data)
        x = graph.leaf(z_train.x)
        loss = model.record_example_loss(theta, x, z_train.y, "cross-entropy")
        t0 = perf_counter()
        (g,) = ad.backward(loss, [theta])
        t1 = perf_counter()
        n1 = len(graph.nodes)
        score = ad.cosine(g, graph.constant(g_test))
        t2 = perf_counter()
        ad.backward(score, [x])
        t3 = perf_counter()
        first.append(t1 - t0)
        second.append(t3 - t2)
        nodes = (n1, len(graph.nodes))
    out["autodiff.backward1_ms"] = 1e3 * statistics.median(first)
    out["autodiff.backward2_ms"] = 1e3 * statistics.median(second)
    out["autodiff.nodes1"], out["autodiff.nodes2"] = nodes

    model.accuracy(params, train_ds)  # the n=600 pass pays its cold caches once
    out["models.eval_pass_ms"] = 1e3 * median_time(lambda: model.accuracy(params, train_ds), min_reps=3)

    def sgd_step():
        graph = ad.Graph()
        theta = graph.leaf(params.data)
        loss = model.record_batch_loss(theta, graph.constant(train_ds.X[:32]), train_ds.y[:32], "cross-entropy")
        tfa_models.sgd_step(params, ad.grad(loss, theta), 0.25)

    out["models.sgd_step_ms"] = 1e3 * median_time(sgd_step)
    out["models.param_grad_ms"] = 1e3 * median_time(lambda: model.param_grad(params, z_train), min_reps=10)
    out["models.loss_ms"] = 1e3 * median_time(lambda: model.loss(params, z_train), min_reps=10)

    rank_s = median_time(
        lambda: tfa_tda.rank_training_set(model, params, holdout, z_test, "grad-cos"), min_reps=3
    )
    out["tda.rank_per_example_us"] = 1e6 * rank_s / len(holdout)

    out["saliency.sample_ms"] = 1e3 * median_time(
        lambda: tfa_saliency.smoothgrad_saliency(model, params, z_train, z_test, sigma=0.05, samples=10, seed=seed),
        min_reps=3,
    ) / 10
    out["saliency.raw_map_ms"] = 1e3 * median_time(
        lambda: tfa_saliency.smoothgrad_saliency(model, params, z_train, z_test, sigma=0.0, samples=1, seed=seed)
    )
    out["harness.intervention_delta_ms"] = 1e3 * median_time(
        lambda: tfa_harness.intervention_delta(model, params, z_train, z_test, 1e-3), min_reps=10
    )

    small = tfa_models.Model(arch12())
    small_params = tfa_models.init_params(small.arch, seed)
    small_ds = tfa_datasets.generate_synthetic(spec12(seed))[0].subset(range(12))
    hess_s = median_time(lambda: tfa_tda.dense_hessian(small, small_params, small_ds), min_reps=2)
    out["tda.hessian_column_ms"] = 1e3 * hess_s / small.num_params
    matrix = tfa_tda.dense_hessian(small, small_params, small_ds).matrix
    lam = float(np.abs(matrix).sum(axis=1).max())  # Gershgorin: H + lam I is positive definite
    v = np.random.default_rng(seed).normal(size=small.num_params)
    solve_s = median_time(lambda: tfa_tda.DampedHessian(matrix).solve(v, lam), min_reps=10)
    cached = tfa_tda.DampedHessian(matrix)
    cached.solve(v, lam)
    cached_s = median_time(lambda: cached.solve(v, lam), min_reps=50)
    out["tda.cho_factor_ms"] = 1e3 * (solve_s - cached_s)
    out["tda.solve_us"] = 1e6 * cached_s
    return out
