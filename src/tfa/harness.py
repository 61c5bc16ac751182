"""Quantitative evaluation protocols for training feature attribution.

Three experiments live here. The paired insertion intervention keeps only
the most salient pixels of an influential training image, takes one SGD
step, and asks whether the test loss drops more than it does for a random
pixel subset of the same size. The misclassification report ranks the
training set for a single wrong prediction and attaches saliency maps to
the extremes of the ranking. The patch sweep plants a shortcut patch in a
growing share of one class's training images and measures both the damage
to patched probe images and how sharply the saliency maps localize the
patch. All three rank the training set for one test prediction with grad-cos
and map the chosen training images through the same step, _maps.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .models import Dataset, LabeledExample, Model, TrainConfig, sgd_step, train
from .rng import child_seed, stream
from .saliency import channel_aggregate, smoothgrad_saliency
from .tda import rank_training_set

FILL_MODES = ("dataset-mean", "zero")
MASK_MODES = ("topk", "random")
PATCH_TOP_PERCENT = 10  # patch_attribution_fraction reads this top share of a grid's pixels

Z95 = 1.96  # normal-approximation 95% interval


@dataclass(frozen=True)
class InterventionConfig:
    """Knobs for the paired insertion experiment."""

    k_percents: tuple = (10, 20, 30, 40, 50, 100)
    num_tests: int = 20
    top_m: int = 10
    lr_step: float = 1e-3
    sigma: float = 0.05
    samples: int = 30
    seed: int = 0
    fill: str = "dataset-mean"

    def __post_init__(self):
        if not self.k_percents:
            raise ValueError("need at least one k value")
        for k in self.k_percents:
            if not 0 < k <= 100:
                raise ValueError(f"k percent must lie in (0, 100], got {k}")
        if len(set(self.k_percents)) < len(self.k_percents):
            raise ValueError(f"k percents must be distinct, got {self.k_percents}")
        if self.num_tests < 1 or self.top_m < 1 or self.samples < 1:
            raise ValueError("num_tests, top_m and samples must be positive")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be non-negative and finite")
        if not -np.inf < self.lr_step < np.inf:
            raise ValueError("lr_step must be finite")
        if self.fill not in FILL_MODES:
            raise ValueError(f"fill must be one of {FILL_MODES}")


@dataclass(frozen=True)
class PairedResult:
    """Per-k aggregate of the paired topk/random deltas."""

    k: float
    mean_random: float
    mean_topk: float
    mean_paired_delta: float
    ci_half_width: float
    pairs: int

    def __post_init__(self):
        if self.ci_half_width < 0:
            raise ValueError("confidence half-width cannot be negative")
        if self.pairs < 1:
            raise ValueError("need at least one pair")


@dataclass(frozen=True)
class PatchSpec:
    """A square shortcut patch stamped onto the bottom-right corner of target-class training images."""

    size: int
    color: tuple
    target_class: int
    fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("patch size must be at least one pixel")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("patch fraction must lie in [0, 1]")
        for v in self.color:
            if not 0.0 <= v <= 1.0:
                raise ValueError("patch color channels must lie in [0, 1]")


@dataclass(frozen=True)
class PatchSweepRow:
    fraction: float
    overall_accuracy: float
    unpatched_target_accuracy: float
    patched_probe_accuracy: float
    patch_attribution_fraction: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class MisclassificationReport:
    """Ranking extremes plus saliency maps for one (usually wrong) prediction."""

    test_index: int
    predicted_class: int
    true_class: int
    correctly_classified: bool
    helpful: tuple
    harmful: tuple
    maps: dict = field(repr=False)


def retained_pixel_count(k: float, height: int, width: int) -> int:
    # ceil so that any positive k keeps at least one pixel; exact for an integer k, unlike k / 100 * h * w
    return math.ceil(k * height * width / 100)


def _top_pixels(grid: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the `count` largest grid values, ties to the lower flat index."""
    return np.argsort(-grid.ravel(), kind="stable")[:count]


def mask_insert(x, grid, k, fill, mode: str = "topk", seed=None) -> np.ndarray:
    """Keep the top (or a random) k% of pixels, fill the rest.

    x is a (C, H, W) image and grid a non-negative (H, W) importance map.
    A retained pixel keeps all its channels. `fill` is a scalar or a
    per-channel vector. topk breaks ties by ascending flat index so the
    retained set is a pure function of the grid; random draws the set from
    `seed` (an int or a Generator) independently of the grid.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {x.shape}")
    c, h, w = x.shape
    grid = np.asarray(grid, dtype=np.float64)
    if grid.shape != (h, w):
        raise ValueError(f"grid shape {grid.shape} does not match image {(h, w)}")
    if not 0 < k <= 100:
        raise ValueError(f"k percent must lie in (0, 100], got {k}")
    if mode not in MASK_MODES:
        raise ValueError(f"mode must be one of {MASK_MODES}")

    keep = retained_pixel_count(k, h, w)
    if mode == "topk":
        kept = _top_pixels(grid, keep)
    else:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        kept = rng.permutation(h * w)[:keep]

    flat = x.reshape(c, h * w)
    masked = np.empty_like(flat)
    masked[:] = np.reshape(np.broadcast_to(np.asarray(fill, dtype=np.float64), (c,)), (c, 1))
    masked[:, kept] = flat[:, kept]
    return masked.reshape(c, h, w)


def intervention_delta(
    model: Model,
    params,
    z_masked: LabeledExample,
    z_test: LabeledExample,
    lr_step: float,
) -> float:
    """Test-loss change from one SGD step on the masked example.

    The step starts from a copy; the caller's parameters are untouched.
    Positive means the step hurt the test prediction.
    """
    before = model.loss(params, z_test)
    return _loss_after_step(model, params, z_masked, z_test, lr_step) - before


def _loss_after_step(model, params, z_masked, z_test, lr_step) -> float:
    """Test loss after one SGD step on the masked example; intervention_delta's minuend."""
    g = model.param_grad(params, z_masked)
    return model.loss(sgd_step(params, g, lr_step), z_test)


def _maps(model, params, dataset, z_test, records, sigma, samples, seed, name) -> dict:
    """{train index: SaliencyMap} of each listed record against z_test, in record order.

    The map of training example i draws its noise from child_seed(seed,
    f"{name}/{i}"), and an index listed twice is mapped once.
    """
    maps = {}
    for rec in records:
        i = rec.train_index
        if i not in maps:
            noise_seed = child_seed(seed, f"{name}/{i}")
            maps[i] = smoothgrad_saliency(model, params, dataset.example(i), z_test, sigma, samples, noise_seed)
    return maps


def paired_insertion_experiment(
    model: Model,
    params,
    holdout: Dataset,
    test_set: Dataset,
    config: InterventionConfig,
) -> list:
    """Run the paired topk-vs-random insertion intervention.

    For each sampled test image the top-M holdout images by grad-cos are
    selected, a smoothed saliency grid is computed per pair, and for every
    k both conditions are evaluated from the same starting parameters. The
    per-k aggregate reports the mean paired difference topk minus random
    with a normal-approximation 95% interval. Every random draw comes from
    a named child stream of the master seed, so reruns reproduce each cell
    exactly and adding a k value never perturbs the others.
    """
    if len(holdout) == 0 or len(test_set) == 0:
        raise ValueError("holdout pool and test set must be non-empty")

    if config.fill == "dataset-mean":
        fill = holdout.mean_pixel()
    else:
        fill = np.zeros(holdout.X.shape[1])

    num_tests = min(config.num_tests, len(test_set))
    picked = stream(config.seed, "insertion/tests").choice(
        len(test_set), size=num_tests, replace=False
    )

    deltas = {k: [] for k in config.k_percents}  # k -> one (topk, random) pair per (test, map)
    for t in sorted(int(i) for i in picked):
        z_test = test_set.example(t)
        before = model.loss(params, z_test)  # the pre-step loss of every delta below
        ranking = rank_training_set(model, params, holdout, z_test, "grad-cos")
        top = ranking.helpful(config.top_m)
        if not top:
            raise ValueError("no usable holdout example for a sampled test image")
        maps = _maps(
            model, params, holdout, z_test, top, config.sigma, config.samples, config.seed, f"insertion/smooth/{t}"
        )
        for m, sal in maps.items():
            z_train = holdout.example(m)
            grid = channel_aggregate(sal)
            for k in config.k_percents:
                x_top = mask_insert(z_train.x, grid, k, fill, "topk")
                rand_seed = stream(config.seed, f"insertion/rand/{t}/{m}/{k}")
                x_rand = mask_insert(z_train.x, grid, k, fill, "random", seed=rand_seed)
                deltas[k].append(tuple(
                    _loss_after_step(model, params, LabeledExample(x, z_train.y), z_test, config.lr_step)
                    - before
                    for x in (x_top, x_rand)
                ))

    # (k, pair) arrays reduced along their contiguous pair axis: the same pairwise sums as one k at a time
    top, rand = np.moveaxis(np.array(list(deltas.values())), 2, 0)
    diff = top - rand
    pairs = diff.shape[1]
    half = Z95 * np.std(diff, axis=1, ddof=1) / math.sqrt(pairs) if pairs > 1 else np.zeros(len(diff))
    aggregates = zip(config.k_percents, rand.mean(axis=1), top.mean(axis=1), diff.mean(axis=1), half)
    return [PairedResult(float(k), float(r), float(t), float(d), float(h), pairs) for k, r, t, d, h in aggregates]


def explain_misclassification(
    model: Model,
    params,
    dataset: Dataset,
    z_test: LabeledExample,
    *,
    top_r: int = 5,
    sigma: float = 0.05,
    samples: int = 10,
    seed: int = 0,
    test_index: int = -1,
) -> MisclassificationReport:
    """Rank the training set for one test example and map the extremes.

    Intended for misclassified inputs; a correctly classified one still
    produces a report but raises a warning first. Scores are grad-cos,
    positive = helpful, so the harmful list carries the most negative
    scores with the worst offender first. Each listed example gets a
    smoothed saliency map seeded by its train index.
    """
    if top_r < 0:
        raise ValueError(f"top_r must be non-negative, got {top_r}")
    predicted = int(model.predict(params, z_test.x[None])[0])
    correct = predicted == z_test.y
    if correct:
        warnings.warn(
            "test example is correctly classified; the harmful list may be uninformative",
            RuntimeWarning,
            stacklevel=2,
        )
    ranking = rank_training_set(model, params, dataset, z_test, "grad-cos")
    helpful = tuple(ranking.helpful(top_r))
    harmful = tuple(ranking.harmful(top_r))
    # helpful and harmful overlap when 2 * top_r exceeds the dataset
    maps = _maps(model, params, dataset, z_test, (*helpful, *harmful), sigma, samples, seed, "explain/map")
    return MisclassificationReport(
        test_index=test_index,
        predicted_class=predicted,
        true_class=z_test.y,
        correctly_classified=correct,
        helpful=helpful,
        harmful=harmful,
        maps=maps,
    )


def patch_region(image_shape, spec: PatchSpec):
    """Row and column slices covered by the patch in the bottom-right corner of an image."""
    h, w = image_shape[-2], image_shape[-1]
    if spec.size > h or spec.size > w:
        raise ValueError(f"patch of size {spec.size} does not fit in {h}x{w} image")
    return slice(h - spec.size, h), slice(w - spec.size, w)


def apply_patch(x, spec: PatchSpec) -> np.ndarray:
    """Stamp the patch color onto a copy of one (C, H, W) image or of each image of a (..., C, H, W) stack."""
    x = np.array(x, dtype=np.float64)
    if x.ndim < 3:
        raise ValueError(f"expected a (C, H, W) image or a (..., C, H, W) stack, got shape {x.shape}")
    if len(spec.color) != x.shape[-3]:
        raise ValueError(f"patch color has {len(spec.color)} channels, image has {x.shape[-3]}")
    rows, cols = patch_region(x.shape, spec)
    x[..., rows, cols] = np.reshape(spec.color, (-1, 1, 1))
    return x


def make_patched_dataset(dataset: Dataset, spec: PatchSpec) -> Dataset:
    """Patch an exact floor(fraction * count) of the target-class images.

    The patched subset is chosen by a seeded shuffle of the target-class
    indices, so the same spec always marks the same images. Labels and all
    other images are untouched.
    """
    target = np.flatnonzero(dataset.y == spec.target_class)
    count = math.floor(spec.fraction * len(target))
    order = stream(spec.seed, "patch/choose").permutation(len(target))
    chosen = target[order[:count]]

    X = dataset.X.copy()
    X[chosen] = apply_patch(X[chosen], spec)
    return Dataset(X, dataset.y)


def patch_attribution_fraction(grid, spec: PatchSpec) -> float:
    """Share of the grid's top PATCH_TOP_PERCENT percent of pixels that fall inside the patch.

    The pixels are those mask_insert keeps at k = PATCH_TOP_PERCENT, ties at
    the threshold going to the lower flat index, so the set is deterministic.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"expected a (H, W) grid, got shape {grid.shape}")
    h, w = grid.shape
    kept = _top_pixels(grid, retained_pixel_count(PATCH_TOP_PERCENT, h, w))
    inside = np.zeros((h, w), dtype=bool)
    rows, cols = patch_region(grid.shape, spec)
    inside[rows, cols] = True
    return float(inside.ravel()[kept].mean())


def check_patch(arch, spec: PatchSpec, probe_class: int, fractions=()) -> None:
    """Raise ValueError unless the patch fits arch's images, target and probe_class are two of its classes, and
    the fractions lie in [0, 1] and differ at the 6 decimals that seed each row (a repeat would be retrained)."""
    apply_patch(np.zeros(arch.input_shape), spec)
    t, k = spec.target_class, arch.num_classes
    if len({t, probe_class} & set(range(k))) != 2:
        raise ValueError(f"target class {t} and probe class {probe_class} must be two different classes in [0, {k})")
    if not all(0.0 <= f <= 1.0 for f in fractions) or len({f"{f:.6f}" for f in fractions}) < len(fractions):
        raise ValueError(f"fractions must lie in [0, 1] and differ at 6 decimals, got {list(fractions)}")


def patch_sweep(
    base_train: Dataset,
    base_test: Dataset,
    fractions,
    arch,
    train_config: TrainConfig,
    spec: PatchSpec,
    probe_class: int,
    *,
    probe_count: int = 5,
    harmful_count: int = 10,
    sigma: float = 0.05,
    samples: int = 10,
    seed: int = 0,
) -> list:
    """Retrain at each patch fraction and measure shortcut uptake.

    The patch goes onto target-class training images only; test and
    validation data stay clean except for the deliberately patched probe
    images. Probe images belong to a different class, so once the model
    has learned patch-implies-target their accuracy collapses. For each
    fraction a handful of patched probes (misclassified ones first, topped
    up deterministically) are explained via their most harmful training
    examples, and the mean patch attribution fraction of those saliency
    grids is reported. Every per-fraction job derives its own seeds from
    the fraction value, so the rows are independent of sweep order. check_patch
    checks the patch, the class pair and the fractions, and both counts must
    be positive, and the test split must hold both a probe-class and a
    target-class image, before any training.
    """
    check_patch(arch, spec, probe_class, fractions)
    if probe_count < 1 or harmful_count < 1:
        raise ValueError(f"probe_count and harmful_count must be at least 1, got {probe_count} and {harmful_count}")

    model = Model(arch)
    probe_pool = np.flatnonzero(base_test.y == probe_class)
    target_test = np.flatnonzero(base_test.y == spec.target_class)
    for name, c, pool in (("probe", probe_class, probe_pool), ("target", spec.target_class, target_test)):
        if len(pool) == 0:
            raise ValueError(f"test set has no image of {name} class {c}")

    rows = []
    for f in fractions:
        tag = f"{f:.6f}"
        spec_f = dataclasses.replace(spec, fraction=f, seed=child_seed(seed, f"patch/choose/{tag}"))
        train_ds = make_patched_dataset(base_train, spec_f)
        cfg = dataclasses.replace(train_config, seed=child_seed(seed, f"patch/train/{tag}"))
        params, _ = train(train_ds, arch, cfg, epoch_accuracy=False)

        clean = model.predict(params, base_test.X)
        overall = float(np.mean(clean == base_test.y))
        unpatched_target = float(np.mean(clean[target_test] == spec.target_class))

        patched_probe_X = apply_patch(base_test.X[probe_pool], spec_f)
        probe_preds = model.predict(params, patched_probe_X)
        patched_probe_acc = float(np.mean(probe_preds == probe_class))

        # probes: misclassified patched probe images first, each group in
        # index order, up to probe_count
        probe_rows = np.argsort(probe_preds == probe_class, kind="stable")[:probe_count]

        fractions_seen = []
        for j in probe_rows:
            z_probe = LabeledExample(patched_probe_X[j], probe_class)
            harmful = rank_training_set(model, params, train_ds, z_probe, "grad-cos").harmful(harmful_count)
            maps = _maps(model, params, train_ds, z_probe, harmful, sigma, samples, seed, f"patch/map/{tag}/{j}")
            fractions_seen += [patch_attribution_fraction(channel_aggregate(m), spec_f) for m in maps.values()]

        rows.append(
            PatchSweepRow(
                fraction=float(f),
                overall_accuracy=overall,
                unpatched_target_accuracy=unpatched_target,
                patched_probe_accuracy=patched_probe_acc,
                patch_attribution_fraction=float(np.mean(fractions_seen)),
            )
        )
    return rows
