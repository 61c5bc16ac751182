#!/usr/bin/env python3
"""Write perfbench/reference.json and reference_params.npy from this commit.

    python3 perfbench/make_reference.py

Each workload's fixed reference case (`Workload.golden`) is run once and its
outputs stored. The explain and insertion cases load the parameters the
train case produces, so those are stored as reference_params.npy. Rerun
only when a change is meant to alter results, and say so in the change.
"""

import json
import sys

import numpy as np

from run import BENCH, import_tfa, machine_record


def main():
    import_tfa()
    from workloads import ATOL_SCALE, RTOL, TOLERANCES, WORKLOADS

    cases = {}
    train = WORKLOADS["train"]
    cases["train"] = train.golden(BENCH)
    np.save(BENCH / "reference_params.npy", train.golden_params)
    for name, wl in WORKLOADS.items():
        if name != "train":
            cases[name] = wl.golden(BENCH)
    record = machine_record(0)
    reference = {
        "made_with": {k: record[k] for k in ("commit", "source_sha256", "numpy", "scipy", "blas")},
        "tolerance": {"rtol": RTOL, "atol": f"{ATOL_SCALE} * max(1, max |reference|)", **TOLERANCES},
        "workloads": cases,
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {BENCH / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
