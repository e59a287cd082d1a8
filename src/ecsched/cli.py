"""Command line driver.

Subcommands cover the whole workflow: generate instances, train a
sampler, sample and evaluate schemes, run the exact baselines, export
the MILP, import a solver's solution, and benchmark policies.  Exit
codes: 0 on success, 2 when no feasible result exists (or a search
refuses its budget), 3 on malformed input files, out-of-range flags or
any other usage error.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from . import baselines, io, milp, sampler
from .generate import GenConfig, generate_instance, sample_demands, sample_static
from .io import FormatError
from .model import FeasibilityReport, Instance, build_option_table, check_scheme, compute_flows
from .sampler import TrainConfig

EXIT_OK = 0
EXIT_NO_RESULT = 2
EXIT_FORMAT = 3


class NoResult(RuntimeError):
    """Carries the exit-2 message."""


def _misfit(value, default):
    """What a JSON value must be to replace a config default, or None when
    it fits: a bool is no number, an int field takes only ints and a tuple
    field a list of as many numbers."""
    if isinstance(default, tuple):
        fits = (type(value) is list and len(value) == len(default)
                and not any(map(_misfit, value, default)))
        return None if fits else f"a list of {len(default)} finite numbers"
    if type(default) is int:
        return None if type(value) is int else "an integer"
    fits = type(value) is int or type(value) is float and math.isfinite(value)
    return None if fits else "a finite number"


def _config_overrides(path, config):
    """Apply JSON keys onto a dataclass config; FormatError for an unknown
    key, a value that does not fit its field, or one the config rejects."""
    if path is None:
        return config
    updates = io.load_json(path)
    for key, value in updates.items():
        if key not in {f.name for f in fields(config)}:
            raise FormatError(f"{path}: unknown config key '{key}'")
        need = _misfit(value, getattr(config, key))
        if need:
            raise FormatError(f"{path}: config key '{key}' must be {need}, got {json.dumps(value)}")
        updates[key] = tuple(value) if isinstance(value, list) else value
    return _replaced(config, path, **updates)


def _replaced(config, where, **changes):
    """dataclasses.replace, with the config's range error as a FormatError."""
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _load_instances(directory):
    root = Path(directory)
    manifest = root / "manifest.csv"
    if manifest.exists():
        rows = csv.DictReader(io.read_text(manifest, "CSV").split("\n"), restval="")
        if "path" not in (rows.fieldnames or ()):
            raise FormatError(f"{manifest}: no 'path' column")
        paths = [root / row["path"] for row in rows]
    else:
        paths = sorted(root.glob("*.json"))
    if not paths:
        raise FormatError(f"{directory}: no instances found")
    return [io.read_instance(p) for p in paths]


def _check_isps(instances, where, n_links, model):
    """FormatError naming the first of the instances (read from where)
    whose ISP count is not n_links, the link count of the named model."""
    for inst in instances:
        if inst.topology.n_isps != n_links:
            raise FormatError(f"{where}: instance '{inst.instance_id}' has "
                              f"{inst.topology.n_isps} ISPs per user, but {model} takes {n_links}")


def _write_csv(path, rows):
    """Rows of dicts as CSV, headed by the first row's keys."""
    text = StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    io.write_text(path, text.getvalue())


def cmd_gen(args):
    flags = {"users": "n_users", "slots": "n_slots", "types": "n_types", "isps": "n_isps",
             "seed": "seed"}
    config = _replaced(_config_overrides(args.config, GenConfig()), "command line",
                       **{name: getattr(args, flag) for flag, name in flags.items()
                          if getattr(args, flag) is not None})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(args.count):
        inst = generate_instance(config, seed=config.seed + i)
        path = out / f"{inst.instance_id}.json"
        io.write_instance(inst, path)
        rows.append({"id": inst.instance_id, "seed": inst.seed,
                     "n_users": config.n_users, "n_slots": config.n_slots,
                     "path": path.name})
    _write_csv(out / "manifest.csv", rows)
    print(f"wrote {args.count} instances to {out}")
    return EXIT_OK


def cmd_train(args):
    config = _config_overrides(args.config, TrainConfig())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    instances = _load_instances(args.instances)
    eval_instances = _load_instances(args.eval) if args.eval else ()
    network = sampler.create_network(n_links=instances[0].topology.n_isps, seed=config.seed)
    for group, where in ((instances, args.instances), (eval_instances, args.eval)):
        _check_isps(group, where, network.n_links, "the network for the first instance")
    history = sampler.train(network, instances, config, eval_instances)
    sampler.save_model(network, args.out)
    if args.history:
        _write_csv(args.history, [{"epoch": h.epoch, "tau": f"{h.tau:.6f}",
                                   "train_loss": repr(h.train_loss),
                                   "eval_loss": repr(h.eval_loss)} for h in history])
    first = history[0]
    last = history[-1]
    print(f"trained {config.n_epochs} epochs on {len(instances)} instances")
    print(f"train loss {first.train_loss:.4f} -> {last.train_loss:.4f}")
    if eval_instances:
        print(f"eval loss {first.eval_loss:.4f} -> {last.eval_loss:.4f}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _policy_best_of(policy, model_path, where):
    """The policy's best-of sampler, called as (instance, n_samples, rng,
    table) on instances read from where; a model's sampler first checks
    that the instance has as many ISPs as the model has links."""
    if policy == "rsn":
        return baselines.rsn_best_of_detailed
    if not model_path:
        raise FormatError("--model is required unless --policy rsn")
    network = sampler.load_model(model_path)

    def best_of(instance, n_samples, rng, table=None):
        _check_isps([instance], where, network.n_links, model_path)
        return sampler.best_of_detailed(network, instance, n_samples, rng, table)
    return best_of


def cmd_sample(args):
    instance = io.read_instance(args.instance)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    best, n_feasible = _policy_best_of(args.policy, args.model, args.instance)(instance, args.samples, rng)
    if best is None:
        raise NoResult(f"no feasible scheme in {args.samples} samples")
    scheme, cost = best
    io.write_scheme(scheme, args.out, instance_id=instance.instance_id, cost=cost)
    print(f"best of {args.samples} samples: cost {cost:.4f} "
          f"({n_feasible} feasible); scheme written to {args.out}")
    return EXIT_OK


def _check_scheme(scheme, instance, table):
    """FormatError unless every option of the scheme exists in the instance."""
    try:
        check_scheme(instance, scheme.option, table)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def cmd_eval(args):
    instance = io.read_instance(args.instance)
    scheme, scheme_for, _ = io.read_scheme(args.scheme)
    if scheme_for is not None and scheme_for != instance.instance_id:
        print(f"note: scheme was produced for '{scheme_for}'", file=sys.stderr)
    table = build_option_table(instance.topology)
    _check_scheme(scheme, instance, table)
    flows = compute_flows(instance, scheme, table)
    report = FeasibilityReport.from_flows(flows)
    print(json.dumps({"cost": flows.cost_total, "feasible": report.feasible,
                      "violations": report.counts()}))
    return EXIT_OK if report.feasible else EXIT_NO_RESULT


def cmd_oracle(args):
    instance = io.read_instance(args.instance)
    try:
        result = baselines.brute_force(instance, max_combinations=args.budget)
    except baselines.BudgetExceededError as exc:
        raise NoResult(str(exc)) from exc
    if result is None:
        raise NoResult("no feasible option combination exists")
    scheme, cost = result
    io.write_scheme(scheme, args.out, instance_id=instance.instance_id, cost=cost)
    print(f"exact optimum cost {cost:.4f}; scheme written to {args.out}")
    return EXIT_OK


def cmd_export_milp(args):
    instance = io.read_instance(args.instance)
    model = milp.linearize(instance)
    if args.warmstart_out and not args.warmstart:
        raise FormatError("--warmstart-out needs --warmstart, the scheme to start from")
    if args.warmstart:
        # read and checked first, so a bad scheme leaves no LP file behind
        scheme, _, _ = io.read_scheme(args.warmstart)
        _check_scheme(scheme, instance, model.meta["table"])
    milp.write_lp(model, args.out)
    print(f"{len(model.variables)} variables ({model.n_binaries()} binary), "
          f"{len(model.constraints)} rows; LP written to {args.out}")
    if args.warmstart:
        start_path = args.warmstart_out or str(Path(args.out).with_suffix(".mst"))
        milp.write_warmstart(model, scheme, start_path)
        print(f"warm start written to {start_path}")
    return EXIT_OK


def cmd_import_solution(args):
    instance = io.read_instance(args.instance)
    model = milp.linearize(instance)
    scheme, objective = milp.read_solution(args.solution, model)
    if not math.isfinite(objective):
        raise NoResult(f"{args.solution}: the assignment is infeasible")
    io.write_scheme(scheme, args.out, instance_id=instance.instance_id, cost=objective)
    print(f"imported solution with objective {objective:.4f}; scheme written to {args.out}")
    return EXIT_OK


def _bench_rows(best_of, instances, n_samples, label, rng_for):
    """One row per instance; rng_for(idx) seeds instance idx's draws."""
    rows = []
    for idx, instance in enumerate(instances):
        rng = rng_for(idx)
        table = build_option_table(instance.topology)
        start = time.perf_counter()
        best, n_feasible = best_of(instance, n_samples, rng, table)
        elapsed = time.perf_counter() - start
        rows.append({
            "instance_id": instance.instance_id,
            "policy": label,
            "n_samples": n_samples,
            "n_feasible": n_feasible,
            "best_cost": "" if best is None else repr(best[1]),
            "wall_time_s": f"{elapsed:.6f}",
        })
    return rows


def _aggregate(rows, n_samples):
    costs = [float(r["best_cost"]) for r in rows if r["best_cost"] != ""]
    total = sum(int(r["n_feasible"]) for r in rows)
    ssfr = total / (n_samples * len(rows))
    pfr = sum(1 for r in rows if int(r["n_feasible"]) > 0) / len(rows)
    mean = float(np.mean(costs)) if costs else float("nan")
    std = float(np.std(costs)) if costs else float("nan")
    return mean, std, ssfr, pfr


def cmd_bench(args):
    best_of = _policy_best_of(args.policy, args.model, args.instances)
    instances = _load_instances(args.instances)
    seed = args.seed if args.seed is not None else 0
    rows = _bench_rows(best_of, instances, args.samples, args.policy,
                       lambda idx: np.random.default_rng([seed, idx]))
    if args.out:
        _write_csv(args.out, rows)
    mean, std, ssfr, pfr = _aggregate(rows, args.samples)
    print(f"{args.policy}: {len(instances)} instances, {args.samples} samples each")
    print(f"mean best cost {mean:.4f} (std {std:.4f})")
    print(f"single-sample feasibility rate {ssfr:.4f}, per-instance feasibility rate {pfr:.4f}")
    return EXIT_OK


def cmd_generalize(args):
    policies = {policy: _policy_best_of(policy, args.model, "the sweep") for policy in ("gssn", "rsn")}
    base = _config_overrides(args.config, GenConfig())
    try:
        grid = [int(v) for v in args.grid.split(",") if v]
    except ValueError as exc:
        raise FormatError(f"--grid takes comma-separated integers ({exc})") from exc
    if not grid:
        raise FormatError("--grid needs at least one value")
    axis_field = {"slots": "n_slots", "users": "n_users"}[args.axis]
    configs = [_replaced(base, "--grid", **{axis_field: value}) for value in grid]
    seed0 = args.seed if args.seed is not None else 0
    # slot sweeps hold the static draw fixed per instance index and
    # resample only demands; user sweeps change the topology, so both
    # static and dynamic parts are redrawn per point
    statics = None
    if args.axis == "slots":
        statics = [sample_static(base, np.random.default_rng(seed0 + i))
                   for i in range(args.count)]
    out_rows = []
    for point_idx, (value, config) in enumerate(zip(grid, configs)):
        if statics is not None:
            instances = [Instance(topology=static, seed=seed0 + i,
                                  demands=sample_demands(
                                      static, np.random.default_rng([seed0, value, i]), config),
                                  instance_id=f"sweep-t{value:04d}-{i:04d}")
                         for i, static in enumerate(statics)]
        else:
            instances = [generate_instance(config, seed=seed0 + point_idx * args.count + i)
                         for i in range(args.count)]
        for policy, best_of in policies.items():
            rows = _bench_rows(
                best_of, instances, args.samples, policy,
                lambda idx: np.random.default_rng([seed0, point_idx, idx, policy == "gssn"]))
            mean, std, ssfr, pfr = _aggregate(rows, args.samples)
            out_rows.append({
                "axis": args.axis, "value": value, "policy": policy,
                "n_instances": args.count, "n_samples": args.samples,
                "mean_best_cost": repr(mean), "std_best_cost": repr(std),
                "ssfr": repr(ssfr), "pfr": repr(pfr),
            })
            print(f"{args.axis}={value} {policy}: mean best cost {mean:.4f}")
    _write_csv(args.out, out_rows)
    print(f"sweep written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are FormatErrors (exit 3):
    argparse's own exit code 2 means "no feasible result" here.  The
    subcommand parsers are of this class too."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed for all random streams")
    common.add_argument("--config", default=None, help="JSON file overriding config fields")

    parser = _Parser(prog="ecsched", description="percentile-billed traffic scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic instances")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--users", type=int, default=None)
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--types", type=int, default=None)
    p.add_argument("--isps", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[common], help="train a sampling network")
    p.add_argument("--instances", required=True, help="directory of training instances")
    p.add_argument("--eval", default=None, help="directory of held-out instances")
    p.add_argument("--history", default=None, help="CSV of per-epoch losses")
    p.add_argument("--out", required=True, help="model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[common], help="draw schemes and keep the best")
    p.add_argument("--instance", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--policy", choices=["gssn", "rsn"], default="gssn")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", required=True, help="scheme file")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", parents=[common], help="cost and feasibility of a scheme")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", parents=[common], help="exact optimum by enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--out", required=True, help="scheme file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export-milp", parents=[common], help="write the exact model as LP text")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True, help="LP file")
    p.add_argument("--warmstart", default=None, help="scheme file to convert to a starting point")
    p.add_argument("--warmstart-out", default=None, help="where to write the starting point")
    p.set_defaults(func=cmd_export_milp)

    p = sub.add_parser("import-solution", parents=[common], help="read a solver solution file")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--out", required=True, help="scheme file")
    p.set_defaults(func=cmd_import_solution)

    p = sub.add_parser("bench", parents=[common], help="benchmark a policy over instances")
    p.add_argument("--instances", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--policy", choices=["gssn", "rsn"], default="gssn")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", default=None, help="per-instance CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generalize", parents=[common],
                       help="sweep an instance-size axis with fresh instances")
    p.add_argument("--model", required=True)
    p.add_argument("--axis", choices=["slots", "users"], required=True)
    p.add_argument("--grid", required=True, help="comma-separated sizes")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", required=True, help="sweep CSV")
    p.set_defaults(func=cmd_generalize)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for flag, least in (("seed", 0), ("count", 1), ("samples", 1), ("budget", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise FormatError(f"--{flag} must be at least {least}")
        return args.func(args)
    except (FormatError, FileNotFoundError, NoResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT if isinstance(exc, NoResult) else EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
