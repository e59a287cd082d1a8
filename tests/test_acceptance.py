"""Release gate: ten numbered end-to-end checks, one per shipped claim.

Each test prints a single pass/fail line (visible under ``pytest -s``)
and then asserts, so a plain ``pytest -v`` still shows one verdict per
criterion through the test names.  Tolerances here are contractual:
loosening one is a release decision, not a test fix.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import make_tiny, rsn_scheme
from ecsched import _kernels, gumbel, milp, sampler
from ecsched.baselines import (brute_force, combination_count,
                               rsn_best_of_detailed)
from ecsched.generate import GenConfig, generate_instance
from ecsched.model import (AllocationScheme, build_option_table, compute_flows,
                           evaluate_hard, total_cost)
from gradcheck import gssn_grad_check
from milp_utils import exhaustive_optimum

TARGET = np.array([0.1, 0.2, 0.3, 0.4])


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {verdict} - {detail}"
    print(line)
    assert ok, line


def tiled_alpha(n_rows):
    alpha = np.tile([1.0, 2.0, 3.0, 4.0], (n_rows, 1))
    return alpha, np.ones_like(alpha, dtype=bool)


def test_criterion_01_rounding_law():
    alpha, valid = tiled_alpha(200_000)
    start = time.perf_counter()
    x, _ = gumbel.concrete_rows(alpha, valid, 0.5, np.random.default_rng(1))
    freq = np.bincount(x.argmax(axis=1), minlength=4) / len(alpha)
    elapsed = time.perf_counter() - start
    err = float(np.abs(freq - TARGET).max())
    report(1, err <= 0.01 and elapsed < 10.0,
           f"argmax freq err {err:.4f} (<=0.01), {elapsed:.2f}s (<10s)")


def test_criterion_02_zero_temperature_law():
    # Saturation at level 0.999 needs a top-two logit gap of tau*ln(999),
    # which ~5% of rows miss at tau=0.01; the band is the exact law.
    n_rows, tau, level = 10_000, 0.01, 0.999
    alpha, valid = tiled_alpha(n_rows)
    x, _ = gumbel.concrete_rows(alpha, valid, tau, np.random.default_rng(0))
    frac_saturated = float((x.max(axis=1) >= level).mean())
    (lower, upper), (lo, hi) = oracles.saturation_band(alpha[0], tau, level, n_rows)
    freq = np.bincount(x.argmax(axis=1), minlength=4) / len(alpha)
    tv = float(0.5 * np.abs(freq - TARGET).sum())
    ok = lo <= frac_saturated <= hi and tv <= 0.02
    report(2, ok,
           f"saturated fraction {frac_saturated:.4f} in [{lo:.4f}, {hi:.4f}] "
           f"(closed form [{lower:.5f}, {upper:.5f}] +/- 4 s.e.), "
           f"argmax TV {tv:.4f} (<=0.02)")


def test_criterion_03_gradient_correctness():
    cfg = GenConfig(n_users=2, n_slots=6, n_types=2, n_isps=4)
    inst = generate_instance(cfg, seed=8)
    net = sampler.create_network(seed=1)
    start = time.perf_counter()
    rep = gssn_grad_check(net, inst, tau=1.0, lam_g=1.0,
                          n_coords=20, h=1e-5, seed=0)
    elapsed = time.perf_counter() - start
    live = sum(1 for c in rep.coords if abs(c[2]) > 1e-8)
    ok = (rep.max_rel_err <= 1e-3 and elapsed < 30.0 and live >= 1
          and len(rep.coords) == 20)
    report(3, ok,
           f"max rel err {rep.max_rel_err:.3e} (<=1e-3) over 20 coords "
           f"({live} live, {rep.n_kinks_skipped} kinks redrawn), "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_04_oracle_agreement():
    worst_opt = 0.0
    worst_decode = 0.0
    for seed in range(20):
        inst = make_tiny(seed, demand_scale=8.0)
        assert combination_count(inst) == 729
        scheme, cost = brute_force(inst)
        model = milp.linearize(inst)
        option, objective = exhaustive_optimum(model)
        worst_opt = max(worst_opt, abs(cost - objective))
        decoded = total_cost(inst, AllocationScheme(option=option))
        worst_decode = max(worst_decode, abs(decoded - objective))
    report(4, worst_opt <= 1e-6 and worst_decode <= 1e-6,
           f"20 instances, optimum gap {worst_opt:.2e}, "
           f"decode gap {worst_decode:.2e} (both <=1e-6)")


def test_criterion_05_learned_beats_random(desk_run):
    g = desk_run["gssn_held"]["costs"]
    r = desk_run["rsn_held"]["costs"]
    assert len(g) == len(r) == 20
    rng = np.random.default_rng(5)
    wins = 0
    for _ in range(20):
        idx = rng.integers(0, 20, size=20)
        if g[idx].mean() < r[idx].mean() and g[idx].std() < r[idx].std():
            wins += 1
    elapsed = desk_run["elapsed_s"]
    ok = (g.mean() < r.mean() and g.std() < r.std()
          and wins >= 18 and elapsed < 900.0)
    report(5, ok,
           f"held-out mean {g.mean():.1f} vs {r.mean():.1f}, "
           f"std {g.std():.1f} vs {r.std():.1f}, bootstrap {wins}/20 (>=18), "
           f"pipeline {elapsed:.0f}s (<900s)")


def test_criterion_06_loss_decay(desk_run):
    # Each recorded loss is measured at its epoch's annealed tau, and loss
    # grows as tau falls, so the trailing losses are read against the
    # untrained network at the same temperatures.
    train = np.array([h.train_loss for h in desk_run["history"]])
    evals = np.array([h.eval_loss for h in desk_run["history"]])
    trailing = train[-10:].mean()
    untrained = desk_run["untrained_trailing"].mean()
    gap = abs(train[-1] - evals[-1]) / abs(train[-1])
    ok = trailing < 0.9 * untrained and gap < 0.2
    report(6, ok,
           f"trailing loss {trailing:.1f} vs untrained {untrained:.1f} at "
           f"matched tau, ratio {trailing / untrained:.3f} (<0.9), "
           f"final train/held gap {gap:.4f} (<0.2)")


def test_criterion_07_feasibility_rates(desk_run):
    rates = {}
    for name in ("gssn_held", "rsn_held", "gssn_train"):
        b = desk_run[name]
        rates[name] = (b["n_feasible"] / b["n_samples"],
                       b["n_hit"] / b["n_instances"])
    ordered = all(ssfr <= pfr for ssfr, pfr in rates.values())
    saturated = all(rates[n] == (1.0, 1.0) for n in ("gssn_train", "gssn_held"))
    shown = ", ".join(f"{n} {s:.3f}/{p:.3f}" for n, (s, p) in rates.items())
    report(7, ordered and saturated,
           f"SSFR<=PFR on all runs, trained sampler at 1/1 ({shown})")


def test_criterion_08_generator_bounds():
    cfg = GenConfig()
    worst_slack = np.inf
    for seed in range(100):
        inst = generate_instance(cfg, seed=seed)
        topo = inst.topology
        cb, cm = topo.edge_cap_basic, topo.edge_cap_billable
        assert ((300.0 < cm) & (cm < 1000.0)).all()
        ratio = cb / cm
        assert ((0.05 < ratio) & (ratio < 0.5)).all()
        assert (topo.edge_cap_phys == 10000.0).all()
        for rate in (topo.edge_rate, topo.isp_rate):
            assert ((5.0 < rate) & (rate < 10.0)).all()
        for isp_cap, edge_cap in ((topo.isp_cap_basic, cb),
                                  (topo.isp_cap_billable, cm)):
            contraction = isp_cap / edge_cap.sum(axis=0)
            assert ((0.8 < contraction) & (contraction < 0.9)).all()
        budget = 2.0 * cb.sum(axis=1)
        for d in (inst.demands.inbound, inst.demands.outbound):
            assert (d > 0.0).all()
            load = d.sum(axis=0)
            assert (load <= budget[:, None]).all()
            worst_slack = min(worst_slack, float((budget[:, None] - load).min()))
    report(8, True,
           f"100 instances inside every static interval; demand bound "
           f"holds with min slack {worst_slack:.2f}")


def test_criterion_09_conservation_and_percentile():
    cfg = GenConfig(n_users=2, n_slots=20, n_types=2, n_isps=3)
    worst_rel = 0.0
    pairs = 0
    for seed in range(100):
        inst = generate_instance(cfg, seed=seed)
        table = build_option_table(inst.topology)
        rng = np.random.default_rng([seed, 9])
        din = inst.demands.inbound.sum(axis=0)
        dout = inst.demands.outbound.sum(axis=0)
        for _ in range(10):
            scheme = rsn_scheme(inst, rng, table)
            fl = compute_flows(inst, scheme, table)
            for flows, totals in ((fl.edge.flow_in, din), (fl.edge.flow_out, dout)):
                rel = np.abs(flows.sum(axis=1) - totals) / totals
                worst_rel = max(worst_rel, float(rel.max()))
            series = fl.edge.flow_in[0, int(rng.integers(fl.edge.flow_in.shape[1]))].copy()
            before = _kernels.billed_level(series)
            series[int(np.argmax(series))] += float(rng.uniform(1.0, 50.0))
            assert _kernels.billed_level(series) == before
            pairs += 1
    report(9, worst_rel <= 1e-9 and pairs == 1000,
           f"{pairs} pairs conserve flow (worst rel {worst_rel:.1e} <=1e-9); "
           f"raising an exempt top slot never moved the billable level")


def test_criterion_10_sampling_throughput():
    inst = generate_instance(GenConfig(), seed=0)
    table = build_option_table(inst.topology)
    net = sampler.create_network(seed=0)
    inp = sampler.preprocess(inst, table)
    alpha, _ = sampler.forward_alpha(net, inp)
    t, n, k = alpha.dims
    rng = np.random.default_rng(0)

    def one_sample():
        option = gumbel.categorical_rows(alpha.values, alpha.valid, rng, 1).reshape(t, n, k)
        return evaluate_hard(inst, table, option)

    one_sample()  # warm caches before timing
    best = min(_timed(one_sample) for _ in range(5))
    report(10, best <= 0.05,
           f"hard sample + feasibility + cost at N=10, T=48: "
           f"{best * 1000:.2f}ms (<=50ms)")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
