"""Artifact bytes must not depend on the BLAS thread count.

Each case runs one computation in two fresh processes, with
OPENBLAS_NUM_THREADS set to 1 and to 2 in their environments, and compares
the sha256 of the result's bytes. OpenBLAS reads the variable once, when it
loads, so the thread count cannot change inside one process.

Byte reproducibility holds on one machine and with one BLAS kernel. Each
case below gives equal bytes at both thread counts, except the strict xfail
of the ``influence`` case: ``np.linalg.eigh`` of a Hessian whose bytes match
gives eigenvalues, eigenvectors and so scores that differ at roundoff. A
one-batch ``train`` at 128 px still differs too, and has no case here.

The last test bounds that roundoff instead of comparing bytes: the
influence values at 2 threads, and at 1 thread with OpenBLAS's Prescott
kernel, agree with the default kernel's at 1 thread to 1e-12 of each
quantity's largest magnitude.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfa


def numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return ""


pytestmark = [
    pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 cores"),
    pytest.mark.skipif("openblas" not in numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS"),
]

HASH = "import hashlib\ndef digest(a): print(hashlib.sha256(a.tobytes()).hexdigest())\n"

# one epoch on 8 images per class at 32 px: a single 24-example minibatch
TRAIN_ONE_SHORT_BATCH = HASH + (
    "from tfa import SyntheticShapesSpec, TrainConfig, generate_synthetic, tiny_cnn, train\n"
    "spec = SyntheticShapesSpec(size=32, train_per_class=8, holdout_per_class=0, test_per_class=1, seed=0)\n"
    "train_ds, _, _ = generate_synthetic(spec)\n"
    "config = TrainConfig(epochs=1, batch_size=32, seed=0)\n"
    "params, _ = train(train_ds, tiny_cnn((1, 32, 32), 3), config, epoch_accuracy=False)\n"
    "digest(params.data)\n"
)

# one epoch on a single 24-example minibatch of 3-channel 32 px noise images
TRAIN_ONE_SHORT_RGB_BATCH = HASH + (
    "import numpy as np\n"
    "from tfa import Dataset, TrainConfig, tiny_cnn, train\n"
    "rng = np.random.default_rng(0)\n"
    "train_ds = Dataset(rng.uniform(0.0, 1.0, (24, 3, 32, 32)), np.arange(24) % 3)\n"
    "config = TrainConfig(epochs=1, batch_size=32, seed=0)\n"
    "params, _ = train(train_ds, tiny_cnn((3, 32, 32), 3), config, epoch_accuracy=False)\n"
    "digest(params.data)\n"
)

# the 343-parameter CNN of acceptance criterion 4 over 120 examples, at its
# initial parameters, so that no training step enters the comparison
CNN_343 = (
    "from tfa import Model, SyntheticShapesSpec, dense_hessian, generate_synthetic, init_params\n"
    "from tfa.models import ArchitectureSpec, Conv2d, Dense, Flatten, MaxPool, Relu\n"
    "layers = (Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(100, 3))\n"
    "arch = ArchitectureSpec(layers=layers, input_shape=(1, 12, 12), num_classes=3)\n"
    "spec = SyntheticShapesSpec(size=12, train_per_class=40, holdout_per_class=0, test_per_class=1, seed=0)\n"
    "train_ds, _, test_ds = generate_synthetic(spec)\n"
    "model, params = Model(arch), init_params(arch, 0)\n"
    "hessian = dense_hessian(model, params, train_ds)\n"
)
DENSE_HESSIAN_343 = HASH + CNN_343 + "digest(hessian.matrix)\n"
# its influence scores: the damping, solve and scores all read eigh's (w, Q)
INFLUENCE_343 = HASH + CNN_343 + (
    "import numpy as np\n"
    "from tfa import rank_training_set\n"
    "result = rank_training_set(model, params, train_ds, test_ds.example(0), 'influence', hessian=hessian)\n"
    "digest(np.array([record.score for record in result.records]))\n"
)


def dense_hessian_two_conv_blocks(per_class: int) -> str:
    """tiny_cnn at 12 px over 3 * per_class examples, at its initial parameters:
    slices of two conv layers and the head, so conv2 and head columns skip the
    conv1 region."""
    return HASH + (
        "from tfa import Model, SyntheticShapesSpec, dense_hessian, generate_synthetic, init_params, tiny_cnn\n"
        "arch = tiny_cnn((1, 12, 12), 3)\n"
        f"spec = SyntheticShapesSpec(size=12, train_per_class={per_class}, holdout_per_class=0, test_per_class=1, seed=0)\n"
        "train_ds, _, _ = generate_synthetic(spec)\n"
        "digest(dense_hessian(Model(arch), init_params(arch, 0), train_ds).matrix)\n"
    )


# its influence and RelatIF scores in training order, damping() and lambda_min: one quantity per line, as float.hex
VALUES_343 = CNN_343 + (
    "from tfa import rank_training_set\n"
    "for method in ('influence', 'relatif'):\n"
    "    records = rank_training_set(model, params, train_ds, test_ds.example(0), method, hessian=hessian).records\n"
    "    print(*[r.score.hex() for r in sorted(records, key=lambda r: r.train_index)])\n"
    "print(hessian.damping().hex())\n"
    "print(hessian.lambda_min.hex())\n"
)


def output_at(threads: int, code: str, coretype: str | None = None) -> str:
    """code's stdout from a fresh process at the OpenBLAS thread count, and at the kernel coretype if one is named."""
    src = str(Path(tfa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "code",
    [
        pytest.param(TRAIN_ONE_SHORT_BATCH, id="train"),
        pytest.param(TRAIN_ONE_SHORT_RGB_BATCH, id="train-3-channel"),
        pytest.param(DENSE_HESSIAN_343, id="dense-hessian"),
        pytest.param(
            INFLUENCE_343,
            id="influence",
            marks=pytest.mark.xfail(
                strict=True,
                reason="np.linalg.eigh of equal Hessian bytes gives different eigenvalues and "
                "eigenvectors at 1 and 2 OpenBLAS threads, so the influence scores differ",
            ),
        ),
        pytest.param(dense_hessian_two_conv_blocks(20), id="dense-hessian-two-conv-blocks"),
        pytest.param(dense_hessian_two_conv_blocks(40), id="dense-hessian-two-conv-blocks-40"),
    ],
)
def test_bytes_do_not_depend_on_the_blas_thread_count(code):
    assert output_at(1, code) == output_at(2, code)


def test_influence_values_agree_at_roundoff_across_thread_counts_and_kernels():
    """The bytes of the [influence] case differ, but its values stay at roundoff: each of the influence
    and RelatIF scores, damping() and lambda_min agrees within 1e-12 of its largest magnitude."""
    values = lambda out: [np.array([float.fromhex(v) for v in line.split()]) for line in out.splitlines()]
    reference = values(output_at(1, VALUES_343))
    for threads, coretype in [(2, None), (1, "Prescott")]:
        other = values(output_at(threads, VALUES_343, coretype))
        for name, a, b in zip(["influence", "relatif", "damping", "lambda_min"], reference, other, strict=True):
            bound = 1e-12 * max(np.abs(a).max(), np.abs(b).max())
            assert np.abs(a - b).max() <= bound, f"{name} at {threads} threads, kernel {coretype or 'default'}"
