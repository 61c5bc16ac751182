"""Evaluation-harness checks.

The masking and patching primitives have exact counting contracts, so most
tests here assert bitwise or integer-exact behavior. The experiment
drivers are exercised at smoke scale for structure, determinism and the
identities that must hold at any scale (k=100 pairs are literal no-ops,
paired means decompose, patched subsets hit their exact quota).
"""

import functools
import inspect
import re

import numpy as np
import pytest

from tfa import harness
from tfa.datasets import SyntheticShapesSpec, generate_synthetic
from tfa.harness import (
    InterventionConfig,
    MisclassificationReport,
    PairedResult,
    PatchSpec,
    PatchSweepRow,
    apply_patch,
    explain_misclassification,
    intervention_delta,
    make_patched_dataset,
    mask_insert,
    paired_insertion_experiment,
    patch_attribution_fraction,
    patch_region,
    patch_sweep,
    retained_pixel_count,
)
from tfa.models import (
    Dataset,
    LabeledExample,
    Model,
    TrainConfig,
    init_params,
    tiny_cnn,
    train,
)
from tfa.rng import child_seed


@functools.lru_cache(maxsize=None)
def shapes12():
    spec = SyntheticShapesSpec(
        size=12,
        noise=0.05,
        train_per_class=25,
        holdout_per_class=10,
        test_per_class=8,
        seed=3,
    )
    train_ds, holdout, test = generate_synthetic(spec)
    arch = tiny_cnn((1, 12, 12), 3)
    params, _ = train(train_ds, arch, TrainConfig(lr=0.2, epochs=6, batch_size=16, seed=3))
    return Model(arch), params, train_ds, holdout, test


class TestMaskInsert:
    def test_retained_count_matches_ceil_contract(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.8, size=(1, 7, 9))
        grid = rng.random((7, 9))
        for k in (1, 10, 20, 30, 40, 50, 77, 100):
            masked = mask_insert(x, grid, k, fill=-1.0)
            kept = int((masked[0] != -1.0).sum())
            assert kept == retained_pixel_count(k, 7, 9)
            assert kept == int(np.ceil(k / 100 * 63))

    def test_k_100_is_identity_in_both_modes(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=(3, 6, 6))
        grid = rng.random((6, 6))
        assert np.array_equal(mask_insert(x, grid, 100, fill=0.0), x)
        assert np.array_equal(mask_insert(x, grid, 100, fill=0.0, mode="random", seed=5), x)

    def test_topk_selects_highest_grid_cells(self):
        x = np.ones((1, 2, 3))
        grid = np.array([[0.1, 0.9, 0.2], [0.8, 0.0, 0.3]])
        masked = mask_insert(x, grid, 50, fill=0.0)  # keep ceil(3) = 3
        expected = np.array([[[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]])
        assert np.array_equal(masked, expected)

    def test_grid_ties_break_toward_lower_flat_index(self):
        x = np.arange(4.0).reshape(1, 2, 2) + 1.0
        masked = mask_insert(x, np.zeros((2, 2)), 75, fill=0.0)  # keep 3 of 4
        assert np.array_equal(masked, np.array([[[1.0, 2.0], [3.0, 0.0]]]))

    def test_per_channel_fill_and_whole_pixel_retention(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1.0, size=(3, 4, 4))
        grid = rng.random((4, 4))
        fill = np.array([0.1, 0.2, 0.3])
        masked = mask_insert(x, grid, 25, fill=fill)  # keep 4 pixels
        kept = np.flatnonzero((masked.reshape(3, -1) != fill[:, None]).all(axis=0))
        assert len(kept) == 4
        flat_x, flat_m = x.reshape(3, -1), masked.reshape(3, -1)
        for j in range(16):
            if j in kept:
                assert np.array_equal(flat_m[:, j], flat_x[:, j])
            else:
                assert np.array_equal(flat_m[:, j], fill)

    def test_random_mode_ignores_grid_and_follows_seed(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, size=(1, 5, 5))
        g1, g2 = rng.random((5, 5)), rng.random((5, 5))
        a = mask_insert(x, g1, 40, fill=0.0, mode="random", seed=17)
        b = mask_insert(x, g2, 40, fill=0.0, mode="random", seed=17)
        c = mask_insert(x, g1, 40, fill=0.0, mode="random", seed=np.random.default_rng(17))
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        d = mask_insert(x, g1, 40, fill=0.0, mode="random", seed=18)
        assert not np.array_equal(a, d)

    def test_rejects_bad_arguments(self):
        x = np.zeros((1, 4, 4))
        grid = np.zeros((4, 4))
        with pytest.raises(ValueError):
            mask_insert(x, grid, 0, fill=0.0)
        with pytest.raises(ValueError):
            mask_insert(x, grid, 101, fill=0.0)
        with pytest.raises(ValueError):
            mask_insert(x, grid, 50, fill=0.0, mode="worst")
        with pytest.raises(ValueError):
            mask_insert(x, np.zeros((3, 4)), 50, fill=0.0)
        with pytest.raises(ValueError):
            mask_insert(np.zeros((4, 4)), grid, 50, fill=0.0)


class TestInterventionDelta:
    def test_zero_step_changes_nothing(self):
        model, params, _, holdout, test = shapes12()
        delta = intervention_delta(model, params, holdout.example(0), test.example(0), 0.0)
        assert delta == 0.0

    def test_step_on_own_loss_descends(self):
        # one small SGD step on an example's loss lowers that same loss
        model, params, train_ds, _, _ = shapes12()
        z = train_ds.example(1)
        delta = intervention_delta(model, params, z, z, 1e-4)
        assert delta < 0.0

    def test_caller_params_untouched(self):
        model, params, _, holdout, test = shapes12()
        before = params.data.copy()
        intervention_delta(model, params, holdout.example(2), test.example(1), 1e-2)
        assert np.array_equal(params.data, before)


class TestPairedInsertion:
    def run(self):
        model, params, _, holdout, test = shapes12()
        config = InterventionConfig(
            k_percents=(30, 100),
            num_tests=3,
            top_m=2,
            lr_step=1e-3,
            sigma=0.05,
            samples=2,
            seed=9,
        )
        return paired_insertion_experiment(model, params, holdout, test, config)

    def test_structure_and_pair_count(self):
        results = self.run()
        assert [r.k for r in results] == [30.0, 100.0]
        assert all(r.pairs == 6 for r in results)

    def test_k100_row_is_identically_zero(self):
        full = self.run()[-1]
        assert full.mean_paired_delta == 0.0
        assert full.ci_half_width == 0.0
        assert full.mean_topk == full.mean_random

    def test_paired_mean_decomposes(self):
        for r in self.run():
            assert abs(r.mean_paired_delta - (r.mean_topk - r.mean_random)) < 1e-12

    def test_rerun_is_bit_identical(self):
        assert self.run() == self.run()

    def test_holdout_gradients_are_computed_once(self, monkeypatch):
        model, params, _, holdout, test = shapes12()
        model = Model(model.arch)  # a model whose gradient store is empty
        holdout_calls = []
        original = Model.param_grad
        rows = {x.tobytes() for x in holdout.X}  # examples copy their input, so a holdout row is found by value

        def counted(self, params, example):
            if example.x.tobytes() in rows:
                holdout_calls.append(example)
            return original(self, params, example)

        monkeypatch.setattr(Model, "param_grad", counted)
        config = InterventionConfig(k_percents=(30,), num_tests=2, top_m=2, samples=1, seed=9)
        paired_insertion_experiment(model, params, holdout, test, config)
        assert len(holdout_calls) == len(holdout)

    def test_empty_pool_rejected(self):
        model, params, _, holdout, test = shapes12()
        empty = Dataset(holdout.X[:0], holdout.y[:0])
        config = InterventionConfig(num_tests=1, top_m=1, samples=1)
        with pytest.raises(ValueError):
            paired_insertion_experiment(model, params, empty, test, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InterventionConfig(k_percents=(0,))
        with pytest.raises(ValueError):
            InterventionConfig(k_percents=(120,))
        with pytest.raises(ValueError):
            InterventionConfig(fill="noise")
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma must be non-negative"):
                InterventionConfig(sigma=sigma)
        for lr_step in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="lr_step must be finite"):
                InterventionConfig(lr_step=lr_step)
        assert InterventionConfig(lr_step=-1e-3).lr_step == -1e-3  # either sign, as --lr-step allows
        with pytest.raises(ValueError):
            PairedResult(k=10, mean_random=0, mean_topk=0, mean_paired_delta=0, ci_half_width=-1, pairs=4)

    def test_repeated_k_is_rejected(self):
        # each k's deltas would be counted twice, as if independent samples
        with pytest.raises(ValueError, match=re.escape("k percents must be distinct, got (10, 20, 10)")):
            InterventionConfig(k_percents=(10, 20, 10))


class TestExplainMisclassification:
    def test_correct_prediction_warns_but_reports(self):
        model, params, train_ds, _, test = shapes12()
        preds = model.predict(params, test.X)
        right = int(np.flatnonzero(preds == test.y)[0])
        with pytest.warns(RuntimeWarning):
            report = explain_misclassification(
                model, params, train_ds, test.example(right), top_r=3, samples=2, seed=1
            )
        assert report.correctly_classified
        assert report.predicted_class == report.true_class

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_flipped_near_duplicate_lands_in_harmful_tail(self):
        model, params, train_ds, _, test = shapes12()
        z_test = test.example(0)
        wrong_label = (z_test.y + 1) % 3
        dup = np.clip(z_test.x + np.random.default_rng(0).normal(0, 0.01, z_test.x.shape), 0, 1)
        X = np.concatenate([train_ds.X, dup[None]])
        y = np.concatenate([train_ds.y, [wrong_label]])
        planted = len(train_ds)
        report = explain_misclassification(
            model, params, Dataset(X, y), z_test, top_r=10, samples=2, seed=2
        )
        harmful_ids = [r.train_index for r in report.harmful]
        assert planted in harmful_ids
        scores = {r.train_index: r.score for r in report.harmful}
        assert scores[planted] < 0.0

    def test_sort_extremes_and_maps(self):
        model, params, train_ds, _, test = shapes12()
        report = explain_misclassification(
            model, params, train_ds, test.example(2), top_r=4, samples=2, seed=3, test_index=2
        )
        worst_helpful = min(r.score for r in report.helpful)
        best_harmful = max(r.score for r in report.harmful)
        assert best_harmful <= worst_helpful
        listed = {r.train_index for r in (*report.helpful, *report.harmful)}
        assert set(report.maps) == listed
        for m in report.maps.values():
            assert m.values.shape == train_ds.X.shape[1:]
        assert report.test_index == 2

    def test_r_clips_to_dataset_size(self, monkeypatch):
        model, params, train_ds, _, test = shapes12()
        report = explain_misclassification(
            model, params, train_ds, test.example(1), top_r=10_000, samples=1, seed=4
        )
        assert len(report.helpful) == len(train_ds)
        assert len(report.harmful) == len(train_ds)
        monkeypatch.setattr(harness, "rank_training_set", lambda *a, **k: pytest.fail("a negative top_r was ranked"))
        with pytest.raises(ValueError, match="top_r must be non-negative"):
            explain_misclassification(model, params, train_ds, test.example(1), top_r=-1)


class TestPatching:
    def spec(self, **kwargs):
        base = dict(size=3, color=(0.95,), target_class=0, fraction=1.0, seed=0)
        base.update(kwargs)
        return PatchSpec(**base)

    def test_apply_patch_bottom_right_exact(self):
        x = np.zeros((1, 8, 8))
        out = apply_patch(x, self.spec())
        assert np.array_equal(out[0, 5:, 5:], np.full((3, 3), 0.95))
        untouched = out.copy()
        untouched[0, 5:, 5:] = 0.0
        assert np.array_equal(untouched, x)
        stack = np.random.default_rng(0).uniform(size=(2, 1, 8, 8))
        before = stack.copy()
        stamped = apply_patch(stack, self.spec())  # one stamp of the stack: each image's own, byte for byte
        assert stamped.tobytes() == np.stack([apply_patch(image, self.spec()) for image in stack]).tobytes()
        assert np.array_equal(stack, before)

    def test_patch_must_fit_and_match_channels(self):
        with pytest.raises(ValueError):
            apply_patch(np.zeros((1, 4, 4)), self.spec(size=5))
        with pytest.raises(ValueError):
            apply_patch(np.zeros((3, 8, 8)), self.spec())  # 1 color, 3 channels

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            self.spec(fraction=1.5)
        with pytest.raises(ValueError):
            self.spec(size=0)
        with pytest.raises(ValueError):
            self.spec(color=(1.2,))

    def test_fraction_zero_is_identity(self):
        _, _, train_ds, _, _ = shapes12()
        patched = make_patched_dataset(train_ds, self.spec(fraction=0.0))
        assert np.array_equal(patched.X, train_ds.X)
        assert np.array_equal(patched.y, train_ds.y)

    def test_fraction_one_patches_every_target_image(self):
        _, _, train_ds, _, _ = shapes12()
        spec = self.spec(fraction=1.0)
        patched = make_patched_dataset(train_ds, spec)
        rows, cols = patch_region(train_ds.X.shape[1:], spec)
        for i in range(len(train_ds)):
            if train_ds.y[i] == spec.target_class:
                assert np.array_equal(patched.X[i, 0, rows, cols], np.full((3, 3), 0.95))
            else:
                assert np.array_equal(patched.X[i], train_ds.X[i])

    def test_half_fraction_hits_exact_count(self):
        _, _, train_ds, _, _ = shapes12()
        patched = make_patched_dataset(train_ds, self.spec(fraction=0.5))
        changed = np.flatnonzero((patched.X != train_ds.X).any(axis=(1, 2, 3)))
        target_count = int((train_ds.y == 0).sum())
        assert len(changed) == target_count // 2
        assert all(train_ds.y[i] == 0 for i in changed)

    def test_patched_subset_is_seed_stable(self):
        _, _, train_ds, _, _ = shapes12()
        a = make_patched_dataset(train_ds, self.spec(fraction=0.4, seed=6))
        b = make_patched_dataset(train_ds, self.spec(fraction=0.4, seed=6))
        assert np.array_equal(a.X, b.X)
        c = make_patched_dataset(train_ds, self.spec(fraction=0.4, seed=7))
        assert not np.array_equal(a.X, c.X)


class TestPatchAttributionFraction:
    def test_concentrated_inside_gives_one(self):
        spec = PatchSpec(size=4, color=(0.9,), target_class=0, fraction=0.5)
        grid = np.zeros((10, 10))
        rows, cols = patch_region((10, 10), spec)
        grid[rows, cols] = 1.0  # 16 hot cells, keep = ceil(10) = 10
        assert patch_attribution_fraction(grid, spec) == 1.0

    def test_concentrated_outside_gives_zero(self):
        spec = PatchSpec(size=4, color=(0.9,), target_class=0, fraction=0.5)
        grid = np.zeros((10, 10))
        grid[0, :] = 1.0
        assert patch_attribution_fraction(grid, spec) == 0.0

    def test_random_grids_recover_area_baseline(self):
        # uniform-saliency null: expected fraction = patch area / image area
        spec = PatchSpec(size=4, color=(0.9,), target_class=0, fraction=0.5)
        rng = np.random.default_rng(8)
        vals = [patch_attribution_fraction(rng.random((16, 16)), spec) for _ in range(300)]
        assert abs(float(np.mean(vals)) - 16 / 256) < 0.02

    def test_validation(self):
        spec = PatchSpec(size=2, color=(0.9,), target_class=0, fraction=0.5)
        with pytest.raises(ValueError):
            patch_attribution_fraction(np.zeros((4, 4, 4)), spec)


class TestPatchSweepSmoke:
    @pytest.mark.parametrize(
        "patch",
        [
            dict(target_class=7),  # a 3-class model has no class 7
            dict(color=(0.95, 0.95, 0.95)),  # three channels on one-channel images
            dict(size=13),  # larger than the 12x12 images
            dict(probe_count=0),  # no probe would be mapped: the attribution mean would be nan
            dict(probe_count=-1),  # would drop the last probe
            dict(harmful_count=0),
        ],
    )
    def test_bad_patch_is_rejected_before_any_training(self, patch, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("patch_sweep trained with a patch it cannot apply")

        monkeypatch.setattr("tfa.harness.train", must_not_run)
        _, _, train_ds, _, test = shapes12()
        counts = {key: value for key, value in patch.items() if key.endswith("_count")}
        spec_fields = {key: value for key, value in patch.items() if key not in counts}
        spec = PatchSpec(**{**dict(size=3, color=(0.95,), target_class=0, fraction=0.0), **spec_fields})
        cfg = TrainConfig(lr=0.2, epochs=1, batch_size=16, seed=5)
        with pytest.raises(ValueError):
            patch_sweep(train_ds, test, (0.0, 1.0), tiny_cnn((1, 12, 12), 3), cfg, spec, probe_class=1, **counts)

    @pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.25, 0.5, 0.5000001), (0.0, 1.5)])
    def test_repeated_or_out_of_range_fractions_are_rejected_before_any_training(self, fractions, monkeypatch):
        monkeypatch.setattr("tfa.harness.train", lambda *a, **k: pytest.fail("patch_sweep trained"))
        _, _, train_ds, _, test = shapes12()
        spec = PatchSpec(size=3, color=(0.95,), target_class=0, fraction=0.0)
        cfg = TrainConfig(lr=0.2, epochs=1, batch_size=16, seed=5)
        reason = f"fractions must lie in [0, 1] and differ at 6 decimals, got {list(fractions)}"
        with pytest.raises(ValueError, match=re.escape(reason)):
            patch_sweep(train_ds, test, fractions, tiny_cnn((1, 12, 12), 3), cfg, spec, probe_class=1)

    @pytest.mark.parametrize("target, probe, missing", [(0, 2, "probe class 2"), (2, 0, "target class 2")])
    def test_a_class_absent_from_the_test_split_is_rejected_before_any_training(self, target, probe, missing, monkeypatch):
        """An unpatched target accuracy over no image is undefined, as is a probe accuracy."""
        monkeypatch.setattr("tfa.harness.train", lambda *a, **k: pytest.fail("patch_sweep trained"))
        _, _, train_ds, _, test = shapes12()
        spec = PatchSpec(size=3, color=(0.95,), target_class=target, fraction=0.0)
        cfg = TrainConfig(lr=0.2, epochs=1, batch_size=16, seed=5)
        two_classes = test.subset(np.flatnonzero(test.y != 2))
        with pytest.raises(ValueError, match=f"test set has no image of {missing}$"):
            patch_sweep(train_ds, two_classes, (0.0,), tiny_cnn((1, 12, 12), 3), cfg, spec, probe_class=probe)

    def test_rows_and_validation(self):
        spec = SyntheticShapesSpec(
            size=12, noise=0.05, train_per_class=20, holdout_per_class=0, test_per_class=10, seed=5
        )
        train_ds, _, test_ds = generate_synthetic(spec)
        arch = tiny_cnn((1, 12, 12), 3)
        patch = PatchSpec(size=3, color=(0.95,), target_class=0, fraction=0.0)
        cfg = TrainConfig(lr=0.2, epochs=4, batch_size=16, seed=5)
        rows = patch_sweep(
            train_ds,
            test_ds,
            (0.0, 1.0),
            arch,
            cfg,
            patch,
            probe_class=1,
            probe_count=2,
            harmful_count=3,
            sigma=0.05,
            samples=2,
            seed=7,
        )
        assert [r.fraction for r in rows] == [0.0, 1.0]
        for r in rows:
            assert isinstance(r, PatchSweepRow)  # field ranges checked on construction
        with pytest.raises(ValueError):
            patch_sweep(
                train_ds, test_ds, (0.5,), arch, cfg, patch, probe_class=0, probe_count=1
            )
        with pytest.raises(ValueError):
            patch_sweep(
                train_ds, test_ds, (1.5,), arch, cfg, patch, probe_class=1, probe_count=1
            )


def _row_of(X, x) -> int:
    """The one row of X whose bytes equal x."""
    (row,) = np.flatnonzero((X == x).reshape(len(X), -1).all(axis=1))
    return int(row)


class TestMapSeeds:
    """Every map an experiment makes is seeded by child_seed(seed, f"{name}/{train_index}")."""

    @pytest.fixture
    def rankings(self, monkeypatch):
        """Spy on the harness: per ranking, in call order, (model, params, dataset,
        z_test, ranking, [(train_index, seed) of every map made for it])."""
        log = []
        real_rank, real_map = harness.rank_training_set, harness.smoothgrad_saliency

        def rank(model, params, dataset, z_test, *args, **kwargs):
            ranking = real_rank(model, params, dataset, z_test, *args, **kwargs)
            log.append((model, params, dataset, z_test, ranking, []))
            return ranking

        def smoothgrad(*args, **kwargs):
            call = inspect.signature(real_map).bind(*args, **kwargs).arguments
            _, _, dataset, z_test, _, maps = log[-1]
            assert call["z_test"] is z_test  # maps follow the ranking they explain
            maps.append((_row_of(dataset.X, call["z_train"].x), call["seed"]))
            return real_map(*args, **kwargs)

        monkeypatch.setattr(harness, "rank_training_set", rank)
        monkeypatch.setattr(harness, "smoothgrad_saliency", smoothgrad)
        return log

    @pytest.mark.parametrize("size, top_r", [(None, 3), (5, 4)])  # 2r > 5 overlaps the tails
    def test_explain_maps_each_listed_index_once(self, rankings, size, top_r):
        model, params, train_ds, _, test = shapes12()
        dataset = train_ds if size is None else train_ds.subset(range(size))
        report = explain_misclassification(
            model, params, dataset, test.example(2), top_r=top_r, samples=1, seed=11
        )
        [(*_, ranking, maps)] = rankings
        listed = dict.fromkeys(r.train_index for r in (*ranking.helpful(top_r), *ranking.harmful(top_r)))
        assert maps == [(i, child_seed(11, f"explain/map/{i}")) for i in listed]
        assert list(report.maps) == list(listed)

    def test_insertion_maps_the_top_m_of_each_test(self, rankings):
        model, params, _, holdout, test = shapes12()
        config = InterventionConfig(k_percents=(50,), num_tests=3, top_m=2, samples=1, seed=9)
        paired_insertion_experiment(model, params, holdout, test, config)
        tests = [_row_of(test.X, z_test.x) for _, _, _, z_test, _, _ in rankings]
        assert len(tests) == 3 and tests == sorted(tests)
        for t, (*_, ranking, maps) in zip(tests, rankings):
            top = [r.train_index for r in ranking.helpful(2)]
            assert maps == [(i, child_seed(9, f"insertion/smooth/{t}/{i}")) for i in top]

    def test_patch_sweep_maps_the_harmful_tail_of_each_probe(self, rankings):
        spec = SyntheticShapesSpec(
            size=12, noise=0.05, train_per_class=12, holdout_per_class=0, test_per_class=6, seed=5
        )
        train_ds, _, test_ds = generate_synthetic(spec)
        patch = PatchSpec(size=3, color=(0.95,), target_class=0, fraction=0.0)
        cfg = TrainConfig(lr=0.2, epochs=2, batch_size=16, seed=5)
        fractions = (0.0, 1.0)
        patch_sweep(
            train_ds, test_ds, fractions, tiny_cnn((1, 12, 12), 3), cfg, patch,
            probe_class=1, probe_count=2, harmful_count=3, samples=1, seed=7,
        )
        probes = np.stack([apply_patch(test_ds.X[i], patch) for i in np.flatnonzero(test_ds.y == 1)])
        assert len(rankings) == 2 * len(fractions)
        for n, (model, params, _, z_probe, ranking, maps) in enumerate(rankings):
            tag = f"{fractions[n // 2]:.6f}"
            # misclassified probes first, each group in index order
            order = np.argsort(model.predict(params, probes) == 1, kind="stable")
            j = _row_of(probes, z_probe.x)
            assert j == order[n % 2]
            harmful = [r.train_index for r in ranking.harmful(3)]
            assert maps == [(i, child_seed(7, f"patch/map/{tag}/{j}/{i}")) for i in harmful]
