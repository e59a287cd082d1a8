"""Inputs, set-up, stages and output checks of the three workloads.

Every run executes the same three stages, each through the package's
public functions:

* train  - ``sampler.train`` on the desk set (20 training and 20
  held-out instances), then the held-out soft loss at a fixed tau;
* sample - best-of-100 per default-size instance, GSSN with the stored
  desk model, then RSN (``baselines.rsn_best_of_detailed``);
* exact  - ``baselines.brute_force`` on priced tiny instances followed
  by the MILP route (linearize, write_lp, write_warmstart,
  read_solution), and LP export of default-size and desk instances.

A workload is a plan: how many operations each stage runs.  Every run
reports every end-to-end metric, so every stage runs enough operations
for a steady median, and the workload's own stage runs the most.  All operations run in one
closed loop: each call is sent after the previous one returned.
"""

import collections
import dataclasses
import hashlib
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ecsched import baselines, generate, gumbel, milp, model, sampler
from ecsched import io as ecio
from ecsched.generate import GenConfig
from ecsched.model import DemandTensor, Instance, SoftAllocation, build_option_table

import hostspeed
import stats

HERE = Path(__file__).resolve().parent
MODEL_PATH = HERE / "desk_model.json"
MODEL_SHA256 = "11c2a0387a5328c8283a158bf627fea7427052ac7a31570c444a25e54e7d664e"

# the desk protocol of the test suite: fixed instance, network and train seeds
DESK = GenConfig(n_users=4, n_slots=12, n_types=6, n_isps=4)
DESK_TRAIN_SEEDS = range(101, 121)
DESK_HELD_SEEDS = range(9000, 9020)
NET_SEED = 3
TRAIN_SEED = 7
MODEL_EPOCHS = 100
# part of desk-train's definition: the epoch count sets the tau schedule
TRAIN_EPOCHS = 2
HELDOUT_TAU = 1.0
HELDOUT_DRAWS = 8

DEFAULT = GenConfig()
N_SAMPLES = 100

# priced tiny instances: every link open to every pair, demands x8, so the
# optimum is not zero; 3 options over 12 blocks is 531,441 combinations
TINY = GenConfig(n_users=1, n_slots=6, n_types=2, n_isps=2)
TINY_DEMAND_SCALE = 8.0

# Times are CPU seconds of this process.  The loop is single-threaded
# (BLAS pinned to one thread), so on an idle machine this is wall time;
# unlike wall time it leaves out time the hypervisor steals from a VM,
# which shifted wall-time medians by up to 2x between runs on a 2-core VM.
# Each operation's time is then divided by the host's slow-down around
# it (hostspeed.Probe), which other tenants' load moves by up to 1.9x.
CLOCK = time.process_time

COST_RTOL = 1e-9
SETUP_REPEATS = 3
REFERENCE_SECONDS = 30


@dataclasses.dataclass(frozen=True)
class Plan:
    """Operations per stage in one run."""

    train: int   # sampler.train calls
    sample: int  # default-size instances, each GSSN then RSN best-of-100
    oracle: int  # priced tiny instances, each brute force then the MILP route
    export: int  # default-size and desk instances exported as LP each

    def scaled(self, seconds, traced):
        """Counts for a run of ``seconds``, sized at the reference rate.

        A traced run executes each operation twice (plain and traced),
        so it runs half as many distinct operations.
        """
        def count(value):
            n = max(1, round(value * seconds / REFERENCE_SECONDS))
            return math.ceil(n / 2) if traced else n
        return Plan(*(count(getattr(self, f.name)) for f in dataclasses.fields(self)))


# Sized to about REFERENCE_SECONDS of measured work on a 2-core x86-64 VM.
# Every run has at least 3 trainings, 24 sampled instances, 3 oracles and
# 8 exports, so that one slow phase of the host cannot move the median of
# a metric outside the workload's own stage; the workload's own stage gets
# the most operations.
PLANS = {
    "desk-train": Plan(train=5, sample=24, oracle=3, export=8),
    "default-sample": Plan(train=5, sample=26, oracle=3, export=10),
    "exact-small": Plan(train=3, sample=24, oracle=4, export=10),
}


def default_seed(seed, i):
    return 100_000 + 1000 * seed + i


def tiny_candidate_seed(seed, j):
    return 200_000 + 1000 * seed + j


def priced_tiny(instance):
    """Open every link to every pair and scale demands (a nonzero optimum)."""
    topo = dataclasses.replace(instance.topology,
                               admissible=np.ones_like(instance.topology.admissible))
    demands = DemandTensor(inbound=instance.demands.inbound * TINY_DEMAND_SCALE,
                           outbound=instance.demands.outbound * TINY_DEMAND_SCALE)
    return Instance(topology=topo, demands=demands, instance_id=instance.instance_id,
                    seed=instance.seed).validate()


def tiny_seeds(seed, count):
    """Seeds of the first ``count`` priced tiny instances known to be feasible.

    A candidate is kept when routing every block over all its links is
    feasible, so the brute force always has an optimum to check.
    """
    kept = []
    j = 0
    while len(kept) < count:
        s = tiny_candidate_seed(seed, j)
        inst = priced_tiny(generate.generate_instance(TINY, seed=s))
        table = build_option_table(inst.topology)
        t, n, k = inst.dims
        all_links = np.broadcast_to(table.n_valid.T[None] - 1, (t, n, k))
        if model.check_feasibility(inst, model.AllocationScheme(option=all_links), table).feasible:
            kept.append(s)
        j += 1
    return kept


@dataclasses.dataclass
class Inputs:
    """Instances as read back from their files, each with its option table."""

    desk_train: list
    desk_held: list
    default: list
    tiny: list
    network: object


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def setup(seed, plan, tiny_pool, workdir):
    """Generate, write and read back every instance; load the stored model."""
    folder = Path(workdir) / "files" / "instances"
    folder.mkdir(parents=True, exist_ok=True)

    def through_file(inst):
        path = folder / f"{inst.instance_id}.json"
        ecio.write_instance(inst, path)
        back = ecio.read_instance(path)
        return back, build_option_table(back.topology)

    desk_train = [through_file(generate.generate_instance(DESK, seed=s)) for s in DESK_TRAIN_SEEDS]
    desk_held = [through_file(generate.generate_instance(DESK, seed=s)) for s in DESK_HELD_SEEDS]
    default = [through_file(generate.generate_instance(DEFAULT, seed=default_seed(seed, i)))
               for i in range(max(plan.sample, plan.export))]
    tiny = [through_file(priced_tiny(generate.generate_instance(TINY, seed=s))) for s in tiny_pool]
    digest = file_sha256(MODEL_PATH)
    if digest != MODEL_SHA256:
        raise RuntimeError(f"{MODEL_PATH.name}: sha256 {digest} is not the recorded {MODEL_SHA256}")
    return Inputs(desk_train=desk_train, desk_held=desk_held, default=default, tiny=tiny,
                  network=sampler.load_model(MODEL_PATH))


def check_setup(inputs, seed):
    """Read-back instances must equal freshly generated ones."""
    fresh = generate.generate_instance(DEFAULT, seed=default_seed(seed, 0))
    back = inputs.default[0][0]
    if not (np.array_equal(fresh.demands.inbound, back.demands.inbound)
            and np.array_equal(fresh.topology.edge_cap_basic, back.topology.edge_cap_basic)):
        return "instance changed in its write/read round trip"
    return None


def rel_close(a, b):
    return abs(a - b) <= COST_RTOL * max(1.0, abs(a), abs(b))


def check_best(instance, table, result):
    """A best-of-k result must re-price to its cost and be feasible.

    No feasible draw among the k is a valid outcome of a sampler, not a
    failure; it must then report zero feasible draws.
    """
    best, n_feasible = result
    if best is None:
        return None if n_feasible == 0 else f"{n_feasible} feasible draws but no best scheme"
    scheme, cost = best
    repriced = model.total_cost(instance, scheme, table)
    if not rel_close(repriced, cost):
        return f"returned cost {cost!r} but the scheme prices to {repriced!r}"
    if not model.check_feasibility(instance, scheme, table).feasible:
        return "best scheme is infeasible"
    return None


def check_history(history, reference):
    for row in history:
        if not (np.isfinite(row.train_loss) and np.isfinite(row.eval_loss)):
            return f"non-finite loss at epoch {row.epoch}"
    if reference is not None and history != reference:
        return "training history differs from the first run of this process"
    return None


def check_route(optimum, result):
    """The oracle optimum must survive warm start -> read_solution -> objective_of."""
    scheme, cost = optimum
    lp_model, (read_scheme, read_cost) = result
    if not np.array_equal(read_scheme.option, scheme.option):
        return "read_solution returned another scheme than the warm start"
    if not rel_close(read_cost, cost):
        return f"read_solution objective {read_cost!r} differs from the optimum {cost!r}"
    objective = milp.objective_of(lp_model, scheme.option)
    if not rel_close(objective, cost):
        return f"objective_of {objective!r} differs from the optimum {cost!r}"
    return None


def heldout_loss(network, held, seed):
    """Mean held-out soft loss at tau = 1 over a noise stream fixed by the seed."""
    values = []
    for i, (inst, table) in enumerate(held):
        alpha, _ = sampler.forward_alpha(network, sampler.preprocess(inst, table))
        rng = np.random.default_rng([seed, 17, i])
        t, n, k = alpha.dims
        for _ in range(HELDOUT_DRAWS):
            x, _ = gumbel.concrete_rows(alpha.values, alpha.valid, HELDOUT_TAU, rng)
            values.append(model.soft_loss(inst, SoftAllocation(x=x.reshape(t, n, k, -1)),
                                          table=table))
    return float(np.mean(values))


@dataclasses.dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` and ``record`` are not.

    check(result) returns a problem string or None; record(result,
    seconds) stores measurements and may return follow-up operations,
    which run right after this one.
    """

    label: str
    call: object
    check: object = None
    record: object = None


class Run:
    """Closed-loop runner: times operations, checks outputs, counts failures.

    With a tracer, each operation executes twice, once plain and once
    traced, alternating which goes first; results come from the plain
    execution and the time ratio is the tracing overhead.

    With a probe, the host's slow-down is probed after every operation,
    and an operation's seconds are its CPU seconds over the geometric
    mean of the probes before and after it.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.started = (time.perf_counter(), CLOCK())
        self._last_probe = probe() if probe else 1.0
        self.slowdowns = []
        self.raw_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.plain_s = 0.0
        self.traced_s = 0.0
        self._traced_first = False

    def _attempt(self, op, traced):
        self.attempted += 1
        try:
            start = CLOCK()
            if traced:
                with self.tracer.recording():
                    result = op.call()
            else:
                result = op.call()
            raw = CLOCK() - start
            seconds = raw / self._slowdown()
            self.raw_s += raw
            problem = op.check(result) if op.check else None
        except Exception as exc:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.errors.append(f"{op.label}: {problem}")
            return None
        return result, seconds

    def _slowdown(self):
        """Host slow-down around the operation just timed."""
        if self.probe is None:
            return 1.0
        before, self._last_probe = self._last_probe, self.probe()
        factor = math.sqrt(before * self._last_probe)
        self.slowdowns.append(factor)
        return factor

    def submit(self, op):
        """Execute one operation; returns (result, seconds) or None if it failed."""
        if self.tracer is None:
            return self._attempt(op, traced=False)
        order = (True, False) if self._traced_first else (False, True)
        self._traced_first = not self._traced_first
        outcome = {traced: self._attempt(op, traced) for traced in order}
        if outcome[False] and outcome[True]:
            self.plain_s += outcome[False][1]
            self.traced_s += outcome[True][1]
        return outcome[False]

    def submit_all(self, ops):
        queue = collections.deque(ops)
        while queue:
            op = queue.popleft()
            done = self.submit(op)
            if done and op.record:
                queue.extendleft(reversed(op.record(*done) or ()))


def interleave(*stages):
    """Merge op lists so that each stage's operations spread over the whole run.

    The host's speed drifts over seconds; spreading every stage over the
    run keeps one slow phase from landing on a single metric.
    """
    keyed = [((j + 0.5) / len(ops), s, j, op)
             for s, ops in enumerate(stages) for j, op in enumerate(ops)]
    return [op for *_, op in sorted(keyed, key=lambda item: item[:3])]


def setup_ops(seed, plan, workdir, repeats, out):
    tiny_pool = tiny_seeds(seed, plan.oracle)

    def record(inputs, seconds):
        out["setup_s"].append(seconds)
        out.setdefault("inputs", inputs)  # later set-ups are timed, not used

    return [Op("setup", lambda: setup(seed, plan, tiny_pool, workdir),
               lambda inputs: check_setup(inputs, seed), record)
            for _ in range(repeats)]


def train_ops(run, inputs, plan, seed, out):
    train_set = [inst for inst, _ in inputs.desk_train]
    held_set = [inst for inst, _ in inputs.desk_held]
    config = sampler.TrainConfig(n_epochs=TRAIN_EPOCHS, seed=TRAIN_SEED)
    first = {}

    def train_once():
        network = sampler.create_network(seed=NET_SEED)
        if run.tracer:
            run.tracer.label_network(network)
        return network, sampler.train(network, train_set, config, eval_instances=held_set)

    def record(result, seconds):
        out["train_s"].append(seconds)
        if first:
            return []
        first["history"] = result[1]
        return [Op("held-out loss", lambda: heldout_loss(result[0], inputs.desk_held, seed),
                   lambda loss: None if np.isfinite(loss) else f"{loss} at tau={HELDOUT_TAU}",
                   lambda loss, _: out.update(heldout_loss=loss))]

    return [Op("train", train_once,
               lambda result: check_history(result[1], first.get("history")), record)
            for _ in range(plan.train)]


def sample_ops(run, inputs, plan, seed, out):
    network = inputs.network
    if run.tracer:
        run.tracer.label_network(network)
    ops = []
    for i, (inst, table) in enumerate(inputs.default[:plan.sample]):
        calls = {
            "gssn": lambda inst=inst, table=table, i=i: sampler.best_of_detailed(
                network, inst, N_SAMPLES, np.random.default_rng([seed, i, 0]), table),
            "rsn": lambda inst=inst, table=table, i=i: baselines.rsn_best_of_detailed(
                inst, N_SAMPLES, np.random.default_rng([seed, i, 1]), table),
        }
        for policy, call in calls.items():
            ops.append(Op(f"{policy} {inst.instance_id}", call,
                          lambda result, inst=inst, table=table: check_best(inst, table, result),
                          lambda result, seconds, rec=out[policy]: record_best(rec, result, seconds)))
    return ops


def record_best(rec, result, seconds):
    best, n_feasible = result
    rec["ms"].append(seconds * 1e3)
    if best is None:
        rec["no_feasible"] += 1
    else:
        rec["cost"].append(best[1])
    rec["feasible"] += n_feasible
    rec["draws"] += N_SAMPLES


def milp_route(inst, table, scheme, workdir):
    lp_model = milp.linearize(inst, table)
    milp.write_lp(lp_model, Path(workdir) / "files" / "oracle.lp")
    warm = Path(workdir) / "files" / "oracle.warm"
    milp.write_warmstart(lp_model, scheme, warm)
    return lp_model, milp.read_solution(warm, lp_model)


def export_lp(inst, table, path):
    milp.write_lp(milp.linearize(inst, table), path)
    return path


def check_export(path):
    return None if Path(path).stat().st_size > 0 else "empty LP file"


def exact_ops(inputs, plan, workdir, out):
    ops = []
    for inst, table in inputs.tiny[:plan.oracle]:
        combos = baselines.combination_count(inst, table)
        out["combinations"] = combos

        def route(optimum, seconds, inst=inst, table=table, combos=combos):
            out["combos_per_s"].append(combos / seconds)
            return [Op(f"milp route {inst.instance_id}",
                       lambda: milp_route(inst, table, optimum[0], workdir),
                       lambda result: check_route(optimum, result))]

        ops.append(Op(f"oracle {inst.instance_id}",
                      lambda inst=inst, table=table: baselines.brute_force(inst, table=table),
                      lambda result: None if result else "no feasible combination", route))
    lp_path = Path(workdir) / "files" / "export.lp"
    for i in range(plan.export):
        inst, table = inputs.default[i]
        ops.append(Op(f"export {inst.instance_id}",
                      lambda inst=inst, table=table: export_lp(inst, table, lp_path),
                      check_export, lambda path, seconds: out["export_s"].append(seconds)))
        inst, table = inputs.desk_held[i % len(inputs.desk_held)]
        ops.append(Op(f"export {inst.instance_id}",
                      lambda inst=inst, table=table: export_lp(inst, table, lp_path),
                      check_export))
    return ops


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload, seed, seconds, tracer, workdir):
    """Run one workload; returns (run, raw measurements, plan)."""
    plan = PLANS[workload].scaled(seconds, traced=tracer is not None)
    run = Run(tracer, hostspeed.Probe(CLOCK))
    out = {
        "setup_s": [], "train_s": [], "heldout_loss": float("nan"),
        "gssn": {"ms": [], "cost": [], "feasible": 0, "draws": 0, "no_feasible": 0},
        "rsn": {"ms": [], "cost": [], "feasible": 0, "draws": 0, "no_feasible": 0},
        "combos_per_s": [], "combinations": 0, "export_s": [],
    }
    repeats = math.ceil(SETUP_REPEATS / 2) if tracer else SETUP_REPEATS
    first_setup, *more_setups = setup_ops(seed, plan, workdir, repeats, out)
    run.submit_all([first_setup])
    inputs = out.get("inputs")
    if inputs is not None:
        run.submit_all(interleave(train_ops(run, inputs, plan, seed, out),
                                 sample_ops(run, inputs, plan, seed, out),
                                 exact_ops(inputs, plan, workdir, out),
                                 more_setups))
        out["sizes"] = sizes(inputs)
    shutil.rmtree(Path(workdir) / "files", ignore_errors=True)
    out["peak_rss_mb"] = peak_rss_mb()
    return run, out, plan


def sizes(inputs):
    """Facts that size each workload."""
    net = inputs.network
    rows = {}
    for name, pool in (("desk", inputs.desk_held), ("default", inputs.default),
                       ("tiny", inputs.tiny)):
        if pool:
            t, n, k = pool[0][0].dims
            rows[name] = {"dims_TNK": [t, n, k], "isps": pool[0][0].topology.n_isps}
    for name in ("desk", "default"):
        t, n, k = rows[name]["dims_TNK"]
        rows[name]["link_encoder_rows"] = t * n * k * net.n_options * net.n_links
    if inputs.tiny:
        rows["tiny"]["combinations"] = baselines.combination_count(*inputs.tiny[0])
    return rows


def end_to_end(out):
    """The end-to-end metrics as {name: (value, unit)}, plus sample details.

    The details record which percentile each tail is and how many
    instances had no feasible draw (left out of the best-cost mean).
    """
    metrics = {
        "setup_s": (stats.median(out["setup_s"]), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "train_s": (stats.median(out["train_s"]), "s"),
        "train_heldout_loss_tau1": (out["heldout_loss"], "loss"),
    }
    details = {}
    for policy in ("gssn", "rsn"):
        rec = out[policy]
        tail, pct = stats.tail(rec["ms"])
        metrics[f"{policy}_sample_ms_p50"] = (stats.median(rec["ms"]), "ms")
        metrics[f"{policy}_sample_ms_tail"] = (tail, "ms")
        details[f"{policy}_sample_ms_tail"] = {"percentile": pct, "samples": len(rec["ms"])}
        details[f"{policy}_instances_without_feasible_draw"] = rec["no_feasible"]
    for policy in ("gssn", "rsn"):
        rec = out[policy]
        metrics[f"{policy}_best_cost_mean"] = (
            float(np.mean(rec["cost"])) if rec["cost"] else float("nan"), "cost")
    for policy in ("gssn", "rsn"):
        rec = out[policy]
        metrics[f"{policy}_ssfr"] = (
            rec["feasible"] / rec["draws"] if rec["draws"] else float("nan"), "ratio")
    metrics["oracle_combos_per_s"] = (stats.median(out["combos_per_s"]), "1/s")
    metrics["milp_export_s"] = (stats.median(out["export_s"]), "s")
    return metrics, details
