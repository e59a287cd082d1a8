#!/usr/bin/env python3
"""Rebuild the stored GSSN model that the default-sample stage reads.

Trains a fresh sampler with the 100-epoch desk protocol (network seed 3,
train seed 7, the 20 desk training instances seeded from 101) and writes
``desk_model.json`` next to this script, then prints its sha256.  The
held-out set is left out: it only feeds the recorded loss curves, which
draw from their own noise stream, so the weights do not depend on it.

    python3 perfbench/build_model.py

Float summation order can differ between BLAS builds, so a rebuild on
other hardware may yield a different digest; update ``MODEL_SHA256`` in
``workloads.py`` only together with the model file.
"""

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ecsched import generate, sampler  # noqa: E402

import workloads  # noqa: E402


def main():
    start = time.perf_counter()
    train_set = [generate.generate_instance(workloads.DESK, seed=s)
                 for s in workloads.DESK_TRAIN_SEEDS]
    network = sampler.create_network(seed=workloads.NET_SEED)
    config = sampler.TrainConfig(n_epochs=workloads.MODEL_EPOCHS, seed=workloads.TRAIN_SEED)
    sampler.train(network, train_set, config)
    sampler.save_model(network, workloads.MODEL_PATH)
    digest = hashlib.sha256(workloads.MODEL_PATH.read_bytes()).hexdigest()
    print(f"wrote {workloads.MODEL_PATH.name} in {time.perf_counter() - start:.1f} s")
    print(f"sha256 {digest}")
    if digest != workloads.MODEL_SHA256:
        print("digest differs from workloads.MODEL_SHA256", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
