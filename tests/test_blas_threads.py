"""Bit-reproducibility across BLAS thread counts.

Gate outcomes must not depend on how many threads the BLAS runs.  OpenBLAS
reads ``OPENBLAS_NUM_THREADS`` once, when it loads, so each thread count
gets a fresh child process; the two children run one after the other and
neither asks for more than 2 threads.  Only numpy's bundled OpenBLAS is
covered: other BLAS libraries are untested.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
THREAD_COUNTS = (1, 2)


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it has none."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def digests():
    """sha256 of each case's bytes: the soft loss-and-gradient pin inputs,
    a GSSN best-of-100, one default-size descent step's loss and
    gradients, the cached and uncached alpha of a 47-slot instance, one
    stacked soft pricing and the 4-epoch desk history with its trained
    parameters."""
    from conftest import DESK_CONFIG, DESK_NET_SEED, HELD_SEED0, desk_instances
    from ecsched.generate import GenConfig, generate_instance
    from ecsched.model import (DemandTensor, Instance, SoftAllocation, build_option_table,
                               soft_loss, soft_loss_and_grad)
    from ecsched.gumbel import sample_gumbel
    from ecsched.sampler import (TrainConfig, best_of_detailed, create_network, forward_alpha,
                                 load_model, loss_grads_with_noise, network_parameters,
                                 preprocess, train)
    from test_model import random_soft

    out = {}
    digest = hashlib.sha256()
    for base in (generate_instance(DESK_CONFIG, seed=9000), generate_instance(GenConfig(), seed=100000)):
        for factor in (1.0, 2.0):
            inst = Instance(topology=base.topology,
                            demands=DemandTensor(inbound=base.demands.inbound * factor,
                                                 outbound=base.demands.outbound * factor))
            table = build_option_table(inst.topology)
            x = random_soft(inst, table, np.random.default_rng(0)).x
            for lam_g in (0.0, 1.0, 3.5):
                loss, dx = soft_loss_and_grad(inst, table, x, lam_g)
                digest.update(repr(loss).encode() + dx.tobytes())
    out["soft_loss_and_grad"] = digest.hexdigest()

    network = load_model(HERE.parent / "perfbench" / "desk_model.json")
    best, n_feasible = best_of_detailed(network, generate_instance(GenConfig(), seed=100001),
                                        100, np.random.default_rng(1))
    out["gssn_best_of"] = hashlib.sha256(
        best[0].option.tobytes() + repr((best[1], n_feasible)).encode()).hexdigest()

    # the link and program backward sum gradients over distinct rows
    inst = generate_instance(GenConfig(), seed=100003)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    noise = sample_gumbel(np.random.default_rng(3), inp.valid.shape)
    loss, grads = loss_grads_with_noise(network, inst, table, inp, 0.5, 1.0, noise)
    digest = hashlib.sha256(repr(loss).encode())
    for g in grads:
        digest.update(g.tobytes())
    out["default_descent_step"] = digest.hexdigest()

    # 47 slots: the full program forward's row count is not a multiple of 64
    inp = preprocess(generate_instance(GenConfig(n_slots=47), seed=HELD_SEED0))
    for name, keep_cache in (("cached", True), ("uncached", False)):
        alpha, _ = forward_alpha(network, inp, keep_cache=keep_cache)
        out[f"alpha_47_slots_{name}"] = hashlib.sha256(alpha.values.tobytes()).hexdigest()

    inst = generate_instance(GenConfig(), seed=100002)
    table = build_option_table(inst.topology)
    rng = np.random.default_rng(2)
    stack = SoftAllocation(x=np.stack([random_soft(inst, table, rng).x for _ in range(8)]))
    out["stacked_soft_loss"] = hashlib.sha256(soft_loss(inst, stack, 1.5, table).tobytes()).hexdigest()

    net = create_network(seed=DESK_NET_SEED)
    held = [generate_instance(DESK_CONFIG, seed=HELD_SEED0 + i) for i in range(20)]
    history = train(net, desk_instances(20), TrainConfig(n_epochs=4, seed=7),
                    eval_instances=held)
    digest = hashlib.sha256(repr([(h.epoch, h.tau, h.train_loss, h.eval_loss)
                                  for h in history]).encode())
    for p in network_parameters(net):
        digest.update(p.tobytes())
    out["desk_history"] = digest.hexdigest()
    return out


def run_child(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    script = ("import json, test_blas_threads as t; "
              "print(json.dumps({'threads': t.openblas_threads(), 'digests': t.digests()}))")
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=HERE,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_digests_do_not_depend_on_blas_threads():
    if openblas_threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS, whose thread count this test sets")
    runs = [run_child(threads) for threads in THREAD_COUNTS]
    assert [run["threads"] for run in runs] == list(THREAD_COUNTS)
    assert runs[0]["digests"] == runs[1]["digests"]
    for run in runs:
        assert run["digests"]["alpha_47_slots_cached"] == run["digests"]["alpha_47_slots_uncached"]
