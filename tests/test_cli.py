"""Command surface: files in, files out, exit codes, reproducibility."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from conftest import hopeless_instance, make_tiny
from ecsched import io, milp, sampler
from ecsched.baselines import brute_force
from ecsched.cli import main
from ecsched.model import AllocationScheme, total_cost

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_manifest_and_instances(tmp_path, capsys):
    out = tmp_path / "insts"
    code, _, _ = run(capsys, "gen", "--count", "3", "--users", "1",
                     "--slots", "3", "--types", "2", "--isps", "2",
                     "--seed", "50", "--out", str(out))
    assert code == 0
    rows = read_csv(out / "manifest.csv")
    assert [r["id"] for r in rows] == ["inst-00000050", "inst-00000051", "inst-00000052"]
    assert list(rows[0].keys()) == ["id", "seed", "n_users", "n_slots", "path"]
    # every row ends in \r\n on every platform
    raw = (out / "manifest.csv").read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n") == 4
    for row in rows:
        inst = io.read_instance(out / row["path"])
        assert inst.instance_id == row["id"]
        assert inst.seed == int(row["seed"])
        assert inst.dims[1] == int(row["n_users"])
        assert inst.dims[0] == int(row["n_slots"])


def test_gen_config_json_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_users": 2, "n_slots": 4, "n_types": 2,
                               "n_isps": 2, "seed": 9}))
    out = tmp_path / "insts"
    code, _, _ = run(capsys, "gen", "--count", "1", "--config", str(cfg),
                     "--out", str(out))
    assert code == 0
    inst = io.read_instance(out / "inst-00000009.json")
    assert inst.dims == (4, 2, 2)


def test_unknown_config_key_is_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_userz": 2}))
    code, _, err = run(capsys, "gen", "--count", "1", "--config", str(cfg),
                       "--out", str(tmp_path / "x"))
    assert code == 3
    assert "n_userz" in err


@pytest.mark.parametrize("command, config, message", [
    ("gen", {"n_users": "3"}, "'n_users' must be an integer"),
    ("gen", {"n_users": 2.0}, "'n_users' must be an integer"),
    ("gen", {"admissible_prob": "x"}, "'admissible_prob' must be a finite number"),
    ("gen", {"cap_phys": float("nan")}, "'cap_phys' must be a finite number"),
    ("gen", {"demand_band": [1]}, "'demand_band' must be a list of 2 finite numbers"),
    ("gen", {"demand_band": [0.6, True]}, "'demand_band' must be a list of 2 finite numbers"),
    ("gen", [1, 2], "top level must be a JSON object"),
    ("train", {"n_epochs": "ten"}, "'n_epochs' must be an integer"),
    ("train", {"n_epochs": 2.5}, "'n_epochs' must be an integer"),
    ("train", {"n_epochs": True}, "'n_epochs' must be an integer"),
    ("train", {"n_epochs": 0}, "n_epochs and metric_samples must be at least 1"),
    ("train", {"metric_samples": 0}, "n_epochs and metric_samples must be at least 1"),
    ("train", {"tau_start": -1}, "tau_start, tau_end and learning_rate must be finite and positive"),
    ("train", {"learning_rate": "x"}, "'learning_rate' must be a finite number"),
], ids=["gen-string-int", "gen-float-int", "gen-string-float", "gen-nan", "gen-short-tuple",
        "gen-bool-in-tuple", "gen-list", "train-string-int", "train-float-int",
        "train-bool-int", "train-zero-epochs", "train-zero-metric-samples",
        "train-negative-tau", "train-string-float"])
def test_config_type_and_range_errors_are_exit_3(cli_workspace, tmp_path, capsys,
                                                 command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = ["--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--instances", str(cli_workspace["insts"])]
    code, _, err = run(capsys, command, "--config", str(cfg), *args)
    assert code == 3
    assert message in err


def test_undecodable_config_is_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 3
    assert "not valid JSON" in err


@pytest.mark.parametrize("argv, message", [
    (["gen", {"n_users": -1}], "n_users, n_slots, n_types and n_isps must be at least 1"),
    (["gen", {"cap_phys": -1}], "cap_phys"),
    (["gen", {"rate_range": [10, 5]}], "rate_range must be a finite ascending pair"),
    (["gen", {"n_isps": 0}], "n_users, n_slots, n_types and n_isps must be at least 1"),
    (["gen", "--users", "-1"], "command line: n_users, n_slots"),
    (["gen", "--seed", "-1"], "--seed must be at least 0"),
    (["gen", "--count", "-1"], "--count must be at least 1"),
    (["train", {"seed": -1}], "seed at least 0"),
    (["sample", "--policy", "rsn", "--samples", "0"], "--samples must be at least 1"),
    (["bench", "--policy", "rsn", "--samples", "0"], "--samples must be at least 1"),
    (["generalize", "--count", "0"], "--count must be at least 1"),
    (["generalize", "--grid", "0"], "--grid: n_users, n_slots"),
    (["generalize", "--grid", "a,b"], "--grid"),
], ids=["gen-config-users", "gen-config-cap-phys", "gen-config-rate-range", "gen-config-isps",
        "gen-users", "gen-seed", "gen-count", "train-config-seed", "sample-samples",
        "bench-samples", "generalize-count", "generalize-grid", "generalize-grid-not-integer"])
def test_out_of_range_settings_are_exit_3(cli_workspace, tmp_path, capsys, argv, message):
    command, *rest = argv
    args = {"gen": [], "train": ["--instances", str(cli_workspace["insts"])],
            "sample": ["--instance", str(cli_workspace["insts"] / "inst-00000060.json")],
            "bench": ["--instances", str(cli_workspace["insts"])],
            "generalize": ["--model", str(cli_workspace["model"]), "--axis", "slots",
                           "--grid", "3", "--count", "1"]}[command]
    for arg in rest:
        if isinstance(arg, dict):
            (tmp_path / "cfg.json").write_text(json.dumps(arg))
            args += ["--config", str(tmp_path / "cfg.json")]
        else:
            args.append(arg)
    out = tmp_path / "out"
    code, _, err = run(capsys, command, *args, "--out", str(out))
    assert code == 3
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sample", "--instance", "i.json", "--samples", "abc", "--out", "s.json"],
     "ecsched sample: argument --samples: invalid int value: 'abc'"),
    (["sample", "--instance", "i.json", "--out", "s.json", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["eval", "--scheme", "s.json"], "ecsched eval: the following arguments are required: --instance"),
], ids=["not-an-integer", "unknown-flag", "missing-flag"])
def test_usage_errors_are_exit_3(capsys, argv, message):
    # argparse's own exit code, 2, means "no feasible result" here
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert message in err and out == ""


def test_help_is_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train / sample / eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Instances plus a briefly trained model for the fast CLI paths."""
    root = tmp_path_factory.mktemp("cli")
    insts = root / "insts"
    assert main(["gen", "--count", "3", "--users", "1", "--slots", "3",
                 "--types", "2", "--isps", "2", "--seed", "60",
                 "--out", str(insts)]) == 0
    cfg = root / "train.json"
    cfg.write_text(json.dumps({"n_epochs": 2, "seed": 5, "metric_samples": 2}))
    model = root / "model.json"
    history = root / "history.csv"
    assert main(["train", "--instances", str(insts), "--eval", str(insts),
                 "--config", str(cfg), "--history", str(history),
                 "--out", str(model)]) == 0
    return {"root": root, "insts": insts, "model": model,
            "history": history, "config": cfg}


def test_train_history_csv(cli_workspace):
    rows = read_csv(cli_workspace["history"])
    assert [r["epoch"] for r in rows] == ["1", "2"]
    assert list(rows[0].keys()) == ["epoch", "tau", "train_loss", "eval_loss"]
    for row in rows:
        float(row["tau"]), float(row["train_loss"]), float(row["eval_loss"])
    assert sampler.load_model(cli_workspace["model"]).n_links == 2


def test_train_is_reproducible(cli_workspace, tmp_path, capsys):
    model2 = tmp_path / "model2.json"
    hist2 = tmp_path / "hist2.csv"
    code, _, _ = run(capsys, "train", "--instances", str(cli_workspace["insts"]),
                     "--eval", str(cli_workspace["insts"]),
                     "--config", str(cli_workspace["config"]),
                     "--history", str(hist2), "--out", str(model2))
    assert code == 0
    assert hist2.read_bytes() == cli_workspace["history"].read_bytes()
    assert model2.read_bytes() == cli_workspace["model"].read_bytes()


def test_train_moves_the_parameters_on_desk_instances(tmp_path, capsys):
    # the workspace's 1-user, 3-slot instances give all-zero descent
    # gradients; desk-size instances do not, so a broken step shows here
    insts = tmp_path / "insts"
    code, _, _ = run(capsys, "gen", "--count", "2", "--users", "4", "--slots", "12",
                     "--types", "6", "--isps", "4", "--seed", "61", "--out", str(insts))
    assert code == 0
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"n_epochs": 1, "seed": 5, "metric_samples": 1}))
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", "--instances", str(insts), "--config", str(cfg),
                     "--out", str(model))
    assert code == 0
    trained = sampler.network_parameters(sampler.load_model(model))
    fresh = sampler.network_parameters(sampler.create_network(n_links=4, seed=5))
    assert [p.shape for p in trained] == [p.shape for p in fresh]
    moved = [not np.array_equal(p, q) for p, q in zip(trained, fresh)]
    assert all(moved), moved


def test_sample_then_eval(cli_workspace, tmp_path, capsys):
    inst_path = next(cli_workspace["insts"].glob("inst-*.json"))
    scheme_path = tmp_path / "scheme.json"
    code, out, _ = run(capsys, "sample", "--instance", str(inst_path),
                       "--model", str(cli_workspace["model"]),
                       "--samples", "20", "--seed", "1",
                       "--out", str(scheme_path))
    assert code == 0
    assert "best of 20 samples" in out

    code, out, _ = run(capsys, "eval", "--instance", str(inst_path),
                       "--scheme", str(scheme_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    scheme, _, stored = io.read_scheme(scheme_path)
    inst = io.read_instance(inst_path)
    assert doc["cost"] == pytest.approx(total_cost(inst, scheme), rel=1e-12)
    assert stored == pytest.approx(doc["cost"], rel=1e-12)


def test_sample_rsn_policy_needs_no_model(cli_workspace, tmp_path, capsys):
    inst_path = next(cli_workspace["insts"].glob("inst-*.json"))
    code, _, _ = run(capsys, "sample", "--instance", str(inst_path),
                     "--policy", "rsn", "--samples", "10",
                     "--out", str(tmp_path / "s.json"))
    assert code == 0


def test_sample_without_feasible_result_is_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    io.write_instance(hopeless_instance(), path)
    code, _, err = run(capsys, "sample", "--instance", str(path),
                       "--policy", "rsn", "--samples", "15",
                       "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert "no feasible scheme" in err


def test_eval_infeasible_scheme_is_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    inst = hopeless_instance()
    io.write_instance(inst, path)
    scheme_path = tmp_path / "scheme.json"
    from ecsched.model import AllocationScheme
    io.write_scheme(AllocationScheme(option=np.zeros((3, 1, 1), dtype=np.int64)),
                    scheme_path)
    code, out, _ = run(capsys, "eval", "--instance", str(path),
                       "--scheme", str(scheme_path))
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_eval_malformed_instance_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "eval", "--instance", str(bad),
                       "--scheme", str(bad))
    assert code == 3
    assert "error" in err


def test_eval_shape_mismatch_is_exit_3(cli_workspace, tmp_path, capsys):
    inst_path = next(cli_workspace["insts"].glob("inst-*.json"))
    scheme_path = tmp_path / "scheme.json"
    from ecsched.model import AllocationScheme
    io.write_scheme(AllocationScheme(option=np.zeros((1, 1, 1), dtype=np.int64)),
                    scheme_path)
    code, _, err = run(capsys, "eval", "--instance", str(inst_path),
                       "--scheme", str(scheme_path))
    assert code == 3
    assert "does not match" in err


def test_eval_option_out_of_range_is_exit_3(tmp_path, capsys):
    inst = make_tiny(5)
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    scheme_path = tmp_path / "scheme.json"
    from ecsched.model import AllocationScheme
    io.write_scheme(AllocationScheme(option=np.full(inst.dims, 9, dtype=np.int64)),
                    scheme_path)
    code, _, err = run(capsys, "eval", "--instance", str(inst_path),
                       "--scheme", str(scheme_path))
    assert code == 3
    assert "out of range" in err


# ---------------------------------------------------------------------------
# oracle / export / import
# ---------------------------------------------------------------------------

def test_oracle_writes_exact_optimum(tmp_path, capsys):
    inst = make_tiny(2, demand_scale=8.0)
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    out = tmp_path / "opt.json"
    code, _, _ = run(capsys, "oracle", "--instance", str(inst_path),
                     "--out", str(out))
    assert code == 0
    scheme, iid, cost = io.read_scheme(out)
    ref = brute_force(inst)
    assert iid == inst.instance_id
    assert cost == pytest.approx(ref[1], rel=1e-12)
    assert np.array_equal(scheme.option, ref[0].option)


def test_oracle_without_feasible_combination_is_exit_2(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    io.write_instance(hopeless_instance(), inst_path)
    out = tmp_path / "o.json"
    code, _, err = run(capsys, "oracle", "--instance", str(inst_path), "--out", str(out))
    assert code == 2
    assert "no feasible option combination exists" in err
    assert not out.exists()


def test_oracle_budget_refusal_is_exit_2(tmp_path, capsys):
    inst = make_tiny(2)
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    code, _, err = run(capsys, "oracle", "--instance", str(inst_path),
                       "--budget", "10", "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert "exceed" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_oracle_budget_below_one_is_exit_3(tmp_path, capsys, budget):
    inst_path = tmp_path / "inst.json"
    io.write_instance(make_tiny(2), inst_path)
    code, _, err = run(capsys, "oracle", "--instance", str(inst_path),
                       "--budget", budget, "--out", str(tmp_path / "o.json"))
    assert code == 3
    assert "--budget must be at least 1" in err
    assert not (tmp_path / "o.json").exists()


def test_export_import_round_trip(tmp_path, capsys):
    inst = make_tiny(5, demand_scale=8.0)
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    ref = brute_force(inst)
    scheme_path = tmp_path / "scheme.json"
    io.write_scheme(ref[0], scheme_path, instance_id=inst.instance_id)

    lp_path = tmp_path / "model.lp"
    code, out, _ = run(capsys, "export-milp", "--instance", str(inst_path),
                       "--out", str(lp_path), "--warmstart", str(scheme_path))
    assert code == 0
    assert lp_path.exists()
    mst_path = lp_path.with_suffix(".mst")
    assert mst_path.exists()
    assert "warm start written" in out

    back_path = tmp_path / "back.json"
    code, _, _ = run(capsys, "import-solution", "--instance", str(inst_path),
                     "--solution", str(mst_path), "--out", str(back_path))
    assert code == 0
    back, _, cost = io.read_scheme(back_path)
    assert np.array_equal(back.option, ref[0].option)
    assert cost == pytest.approx(ref[1], abs=1e-9)


@pytest.mark.parametrize("shape, fill, message", [
    ((1, 1, 1), 0, "does not match"),
    ((3, 1, 2), 9, "out of range"),
])
def test_export_bad_warmstart_scheme_is_exit_3(tmp_path, capsys, shape, fill, message):
    inst = make_tiny(5)
    assert inst.dims == (3, 1, 2)
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    scheme_path = tmp_path / "scheme.json"
    from ecsched.model import AllocationScheme
    io.write_scheme(AllocationScheme(option=np.full(shape, fill, dtype=np.int64)),
                    scheme_path)
    code, _, err = run(capsys, "export-milp", "--instance", str(inst_path),
                       "--out", str(tmp_path / "model.lp"), "--warmstart", str(scheme_path))
    assert code == 3
    assert message in err
    assert not (tmp_path / "model.lp").exists()


@pytest.mark.parametrize("instance_id", [[1, 2], 7, None, "inst\nminimize", "inst\r"])
def test_instance_id_that_is_no_one_line_string_is_exit_3(tmp_path, capsys, instance_id):
    # a line break in the id used to end the LP file's comment line
    inst_path = tmp_path / "inst.json"
    io.write_instance(make_tiny(5), inst_path)
    doc = json.loads(inst_path.read_text())
    doc["id"] = instance_id
    inst_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "export-milp", "--instance", str(inst_path),
                       "--out", str(tmp_path / "model.lp"))
    assert code == 3
    assert "instance id must be a string without a line break" in err
    assert not (tmp_path / "model.lp").exists()


def test_export_warmstart_out_without_warmstart_is_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    io.write_instance(make_tiny(5), inst_path)
    code, _, err = run(capsys, "export-milp", "--instance", str(inst_path),
                       "--out", str(tmp_path / "model.lp"),
                       "--warmstart-out", str(tmp_path / "start.mst"))
    assert code == 3
    assert "--warmstart-out needs --warmstart" in err
    assert not (tmp_path / "model.lp").exists() and not (tmp_path / "start.mst").exists()


@pytest.mark.parametrize("objective", ["", "# Objective value = 1234.5\n"],
                         ids=["bare", "declared-objective"])
def test_import_infeasible_solution_is_exit_2(tmp_path, capsys, objective):
    inst = hopeless_instance()
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    sol = tmp_path / "sol.txt"
    milp.write_warmstart(milp.linearize(inst),
                         AllocationScheme(option=np.zeros(inst.dims, dtype=np.int64)), sol)
    with open(sol, "a") as fh:
        fh.write(objective)
    out = tmp_path / "b.json"
    code, _, err = run(capsys, "import-solution", "--instance", str(inst_path),
                       "--solution", str(sol), "--out", str(out))
    assert code == 2
    assert str(sol) in err and "infeasible" in err
    assert not out.exists()


def test_import_fractional_solution_is_exit_3(tmp_path, capsys):
    inst = make_tiny(5)
    inst_path = tmp_path / "inst.json"
    io.write_instance(inst, inst_path)
    sol = tmp_path / "sol.txt"
    sol.write_text("lam_t0_n0_k0_p0 0.4\n")
    code, _, err = run(capsys, "import-solution", "--instance", str(inst_path),
                       "--solution", str(sol), "--out", str(tmp_path / "b.json"))
    assert code == 3
    assert "not binary" in err


@pytest.mark.parametrize("make, message", [
    (lambda path: path.write_bytes(b"lam_t0_n0_k0_p0 1\n\xff\xfe\n"), "not valid solution text"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["undecodable", "directory"])
def test_unreadable_solution_is_exit_3(tmp_path, capsys, make, message):
    inst_path = tmp_path / "inst.json"
    io.write_instance(make_tiny(5), inst_path)
    sol = tmp_path / "sol.txt"
    make(sol)
    code, _, err = run(capsys, "import-solution", "--instance", str(inst_path),
                       "--solution", str(sol), "--out", str(tmp_path / "b.json"))
    assert code == 3
    assert str(sol) in err and message in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def desk_model_file(desk_run, directory):
    path = directory / "desk_model.json"
    sampler.save_model(desk_run["network"], path)
    return path


def test_bench_csv_and_aggregates(desk_run, tmp_path, capsys):
    insts = tmp_path / "insts"
    assert main(["gen", "--count", "3", "--users", "2", "--slots", "6",
                 "--types", "2", "--isps", "4", "--seed", "70",
                 "--out", str(insts)]) == 0
    model = desk_model_file(desk_run, tmp_path)
    out = tmp_path / "bench.csv"
    code, text, _ = run(capsys, "bench", "--instances", str(insts),
                        "--model", str(model), "--samples", "20",
                        "--seed", "4", "--out", str(out))
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert list(rows[0].keys()) == ["instance_id", "policy", "n_samples",
                                    "n_feasible", "best_cost", "wall_time_s"]

    # aggregates printed must equal recomputation from the rows
    costs = [float(r["best_cost"]) for r in rows if r["best_cost"]]
    ssfr = sum(int(r["n_feasible"]) for r in rows) / (20 * len(rows))
    pfr = sum(1 for r in rows if int(r["n_feasible"]) > 0) / len(rows)
    assert ssfr <= pfr <= 1.0
    lines = text.splitlines()
    mean_line = next(l for l in lines if l.startswith("mean best cost"))
    rate_line = next(l for l in lines if "feasibility rate" in l)
    assert f"{np.mean(costs):.4f}" in mean_line
    assert f"{ssfr:.4f}" in rate_line and f"{pfr:.4f}" in rate_line


def test_bench_reruns_identical_modulo_wall_time(desk_run, tmp_path, capsys):
    insts = tmp_path / "insts"
    assert main(["gen", "--count", "2", "--users", "2", "--slots", "6",
                 "--types", "2", "--isps", "4", "--seed", "71",
                 "--out", str(insts)]) == 0
    model = desk_model_file(desk_run, tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run(capsys, "bench", "--instances", str(insts),
                         "--model", str(model), "--samples", "15",
                         "--seed", "4", "--out", str(out))
        assert code == 0
        outs.append(read_csv(out))
    for ra, rb in zip(*outs):
        for key in ra:
            if key == "wall_time_s":
                continue
            assert ra[key] == rb[key], key


def test_bench_rsn_policy(tmp_path, capsys):
    insts = tmp_path / "insts"
    assert main(["gen", "--count", "2", "--users", "1", "--slots", "3",
                 "--types", "2", "--isps", "2", "--seed", "72",
                 "--out", str(insts)]) == 0
    code, text, _ = run(capsys, "bench", "--instances", str(insts),
                        "--policy", "rsn", "--samples", "10", "--seed", "1")
    assert code == 0
    assert "rsn: 2 instances" in text


@pytest.mark.parametrize("manifest, message", [
    (b"id,file\ninst-00000060,inst-00000060.json\n", "no 'path' column"),
    (b"", "no 'path' column"),
    (b"id,path\n\xff\n", "not valid CSV"),
    (b"id,path\ninst-00000060\n", "Is a directory"),
], ids=["no-path-column", "empty", "undecodable", "short-row"])
def test_malformed_manifest_is_exit_3(tmp_path, capsys, manifest, message):
    insts = tmp_path / "insts"
    assert main(["gen", "--count", "1", "--users", "1", "--slots", "3", "--types", "2",
                 "--isps", "2", "--seed", "60", "--out", str(insts)]) == 0
    (insts / "manifest.csv").write_bytes(manifest)
    code, _, err = run(capsys, "bench", "--instances", str(insts), "--policy", "rsn",
                       "--samples", "2")
    assert code == 3
    assert str(insts) in err and message in err


def test_bench_gssn_without_model_is_exit_3(tmp_path, capsys):
    insts = tmp_path / "insts"
    assert main(["gen", "--count", "1", "--users", "1", "--slots", "3",
                 "--types", "2", "--isps", "2", "--seed", "73",
                 "--out", str(insts)]) == 0
    code, _, err = run(capsys, "bench", "--instances", str(insts),
                       "--samples", "5")
    assert code == 3
    assert "--model" in err


@pytest.mark.parametrize("command", ["sample", "bench", "generalize", "train", "train-eval"])
def test_model_that_does_not_fit_the_instances_is_exit_3(tmp_path, capsys, command):
    # a 4-link model against 3-ISP instances; train builds its network
    # for the first training instance, which has 4 ISPs
    model = tmp_path / "model.json"
    sampler.save_model(sampler.create_network(n_links=4), model)
    three, four, mixed = (tmp_path / name for name in ("three", "four", "mixed"))
    for directory, files in ((three, [3]), (four, [4]), (mixed, [4, 3])):
        directory.mkdir()
        for i, n_isps in enumerate(files):
            io.write_instance(make_tiny(5 + i, n_isps=n_isps), directory / f"inst-{i}.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_isps": 3}))
    out = tmp_path / "out"
    argv, where = {
        "sample": (["sample", "--instance", three / "inst-0.json", "--model", model],
                   three / "inst-0.json"),
        "bench": (["bench", "--instances", three, "--model", model], three),
        "generalize": (["generalize", "--model", model, "--axis", "slots", "--grid", "3",
                        "--count", "1", "--config", config], "the sweep"),
        "train": (["train", "--instances", mixed], mixed),
        "train-eval": (["train", "--instances", four, "--eval", three], three),
    }[command]
    code, _, err = run(capsys, *map(str, argv), "--out", str(out))
    assert code == 3
    assert f"{where}: instance" in err and "has 3 ISPs per user" in err and "takes 4" in err
    if not command.startswith("train"):
        assert str(model) in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# generalization sweeps
# ---------------------------------------------------------------------------

def sweep(desk_run, tmp_path, capsys, axis, grid):
    # default generator scale: wide enough cost gaps that the curve
    # shapes are not noise at count=4
    model = desk_model_file(desk_run, tmp_path)
    out = tmp_path / f"sweep_{axis}.csv"
    code, _, _ = run(capsys, "generalize", "--model", str(model),
                     "--axis", axis, "--grid", grid, "--count", "4",
                     "--samples", "30", "--seed", "123", "--out", str(out))
    assert code == 0
    return out, read_csv(out)


def by_policy(rows, policy):
    mine = [r for r in rows if r["policy"] == policy]
    return ([int(r["value"]) for r in mine],
            [float(r["mean_best_cost"]) for r in mine],
            [float(r["pfr"]) for r in mine])


def test_user_sweep_curves(desk_run, tmp_path, capsys):
    out, rows = sweep(desk_run, tmp_path, capsys, "users", "2,4,6")
    assert list(rows[0].keys()) == ["axis", "value", "policy", "n_instances",
                                    "n_samples", "mean_best_cost",
                                    "std_best_cost", "ssfr", "pfr"]
    g_vals, g_means, g_pfr = by_policy(rows, "gssn")
    r_vals, r_means, r_pfr = by_policy(rows, "rsn")
    assert g_vals == r_vals == [2, 4, 6]

    # the learned curve sits below the uniform baseline at every point
    for g, r in zip(g_means, r_means):
        assert g < r
    # cost grows with the user count for both policies
    for means in (g_means, r_means):
        rho = scipy.stats.spearmanr(g_vals, means).statistic
        assert rho > 0.9
    # feasibility decays no faster for the learned sampler
    assert (g_pfr[-1] - g_pfr[0]) >= (r_pfr[-1] - r_pfr[0]) - 1e-12
    for r in rows:
        assert 0.0 <= float(r["ssfr"]) <= float(r["pfr"]) <= 1.0


def test_slot_sweep_curves(desk_run, tmp_path, capsys):
    out, rows = sweep(desk_run, tmp_path, capsys, "slots", "6,12,18")
    g_vals, g_means, _ = by_policy(rows, "gssn")
    r_vals, r_means, _ = by_policy(rows, "rsn")
    assert g_vals == r_vals == [6, 12, 18]
    for g, r in zip(g_means, r_means):
        assert g < r
    for means in (g_means, r_means):
        rho = scipy.stats.spearmanr(g_vals, means).statistic
        assert rho > 0.9


def test_sweep_reruns_bit_identical(desk_run, tmp_path, capsys):
    out1, _ = sweep(desk_run, tmp_path, capsys, "users", "2,4")
    first = out1.read_bytes()
    out2, _ = sweep(desk_run, tmp_path, capsys, "users", "2,4")
    assert out2.read_bytes() == first


def test_sweep_empty_grid_is_exit_3(desk_run, tmp_path, capsys):
    model = desk_model_file(desk_run, tmp_path)
    code, _, err = run(capsys, "generalize", "--model", str(model),
                       "--axis", "users", "--grid", ",", "--count", "1",
                       "--samples", "5", "--out", str(tmp_path / "s.csv"))
    assert code == 3
    assert "grid" in err
