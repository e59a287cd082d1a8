"""Exact linearization: model structure, text formats, optima agreement."""

import dataclasses
import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import DESK_CONFIG, HELD_SEED0, make_tiny, rsn_scheme
from ecsched.baselines import brute_force
from ecsched.generate import GenConfig, generate_instance
from ecsched.io import FormatError
from ecsched.milp import (linearize, objective_of, read_solution, write_lp,
                          write_warmstart)
from ecsched.model import AllocationScheme, build_option_table, total_cost
from milp_utils import (complete_assignment, exhaustive_optimum, solve_with_scipy,
                        verify_assignment)

DATA = Path(__file__).parent / "data"


def parse_binaries(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, val = line.split()
        values[name] = int(val)
    return values


# ---------------------------------------------------------------------------
# model structure
# ---------------------------------------------------------------------------

def test_exemption_budget_rows():
    cfg = GenConfig(n_users=1, n_slots=48, n_types=1, n_isps=2)
    inst = generate_instance(cfg, seed=3)
    model = linearize(inst)
    assert model.exempt == 2
    budgets = [r for r, name in enumerate(model.constraints) if name.startswith("bud_")]
    # one row per link and direction, edge plus aggregated
    assert len(budgets) == 2 * (1 * 2 + 2)
    for r in budgets:
        terms = model.coeffs[model.indptr[r]:model.indptr[r + 1]]
        assert model.sense[r] == "<=" and model.rhs[r] == 2.0
        assert len(terms) == 48
        assert all(coeff == 1.0 for coeff in terms)


def test_binary_count():
    inst = make_tiny(1, n_users=2, n_slots=4, n_types=2, n_isps=3,
                     full_admissible=False)
    model = linearize(inst)
    table = build_option_table(inst.topology)
    t, n, k = inst.dims
    el = inst.topology.n_isps
    lam = int(table.n_valid.sum()) * t
    exemptions = 2 * (n * el + el) * t
    assert int(model.binary.sum()) == lam + exemptions
    names = set(model.variables)
    assert len(names) == len(model.variables)


def test_fixed_scheme_reaches_scheme_cost():
    inst = make_tiny(2, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    opt = brute_force(inst, table=table)
    assert opt is not None
    scheme, cost = opt

    ws = DATA.parent / "_ws_tmp.txt"
    write_warmstart(model, scheme, ws)
    try:
        values = complete_assignment(model, parse_binaries(ws))
    finally:
        ws.unlink()
    feasible, objective, violated = verify_assignment(model, values)
    assert feasible, violated
    assert objective == pytest.approx(cost, abs=1e-6)
    assert objective == pytest.approx(total_cost(inst, scheme, table), abs=1e-6)


def test_no_exemptions_never_beats_greedy():
    inst = make_tiny(4, n_slots=20, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    assert model.exempt == 1
    from ecsched.model import check_feasibility
    rng = np.random.default_rng(0)
    scheme = rsn_scheme(inst, rng, table)
    while not check_feasibility(inst, scheme, table).feasible:
        scheme = rsn_scheme(inst, rng, table)

    ws = DATA.parent / "_ws_tmp2.txt"
    write_warmstart(model, scheme, ws)
    try:
        greedy_bin = parse_binaries(ws)
    finally:
        ws.unlink()
    plain_bin = {name: (0 if name.startswith("u_") else val)
                 for name, val in greedy_bin.items()}
    greedy = complete_assignment(model, greedy_bin)
    plain = complete_assignment(model, plain_bin)
    ok_g, obj_g, _ = verify_assignment(model, greedy)
    ok_p, obj_p, viol_p = verify_assignment(model, plain)
    assert ok_g
    # without exemptions z is each link's plain maximum
    f_e, z_e = model.blocks["f_e"], model.blocks["z_e"]
    for n in range(1):
        for i in range(2):
            flows = plain[f_e[:, n, i]]  # both directions, every slot
            assert plain[z_e[n, i]] == pytest.approx(flows.max(), rel=1e-12)
    if ok_p:
        assert obj_p >= obj_g - 1e-9


# ---------------------------------------------------------------------------
# LP text
# ---------------------------------------------------------------------------

def test_lp_bytes_are_frozen(tmp_path):
    inst = make_tiny(0, demand_scale=8.0)
    model = linearize(inst)
    out = tmp_path / "tiny.lp"
    write_lp(model, out)
    assert out.read_bytes() == (DATA / "tiny.lp").read_bytes()


def test_ragged_export_bytes_are_pinned(tmp_path):
    # the frozen fixture has m=0, one user and full admissibility; this
    # instance has ragged option blocks and one exempt slot per series
    inst = make_tiny(3, n_users=2, n_slots=20, n_types=2, n_isps=3,
                     full_admissible=False, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    assert table.n_valid.tolist() == [[3, 3], [1, 1]]
    assert model.exempt == 1
    scheme = rsn_scheme(inst, np.random.default_rng(0), table)
    write_lp(model, tmp_path / "model.lp")
    write_warmstart(model, scheme, tmp_path / "warm.mst")
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("model.lp", "warm.mst")}
    assert digest == {
        "model.lp": "3b90cfe8f41d0332ae24f904c26b2636a94a3949b5a313387b5e42c9c73446c2",
        "warm.mst": "2f95cd1bbdfdd03787624687b12caedab45d8a9f1b789488f0ac73c9d35e3d54",
    }


def model_digest(model):
    """sha256 over a MilpModel's names, arrays (dtype and shape included),
    objective and blocks."""
    digest = hashlib.sha256()

    def add(label, array):
        array = np.ascontiguousarray(array)
        digest.update(f"{label} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.tobytes())

    digest.update("\n".join(model.variables).encode() + b"\n\n")
    digest.update("\n".join(model.constraints).encode() + b"\n\n")
    for label in ("binary", "indptr", "cols", "coeffs", "sense", "rhs"):
        add(label, getattr(model, label))
    add("objective", np.array(model.objective, dtype=[("col", "<i8"), ("coeff", "<f8")]))
    for family in sorted(model.blocks):
        add(family, model.blocks[family])
    return digest.hexdigest()


# sha256 of the LP text, of a uniform random scheme's warm start and of
# the model arrays, at the default size (30,040 columns, 16,688 rows) and
# for the first held-out desk instance
EXPORT_PINS = {
    100001: ("da3975543806dd131a5619421434a729150b15c1e58e90082b0ca4110c5657b3",
             "d5ab18a473c3d73d253c634657bba529bcf6299ea917dd3d6fb34a9376b91d85",
             "d32456cd3274024769c344266e4ce0aeb25f20e12e8fd9d4bff47b5de8deb5e7"),
    HELD_SEED0: ("dea4b6564978dcb44cdd0f4a5bc03e1f83cf82cc86c24edfcc2714f44341331e",
                 "b59e276ddc7576514943b5226199c7878ebb1d460a0ac6653160fd89eb5e97e7",
                 "cc4f2b6e0696d1e61284914b8af8d9d283c5405262e4f7ca4e3a5c91958e1b9d"),
}


@pytest.mark.parametrize("config, seed", [(GenConfig(), 100001), (DESK_CONFIG, HELD_SEED0)],
                         ids=["default", "desk"])
def test_full_size_export_bytes_and_arrays_are_pinned(tmp_path, config, seed):
    inst = generate_instance(config, seed=seed)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    write_lp(model, tmp_path / "model.lp")
    write_warmstart(model, rsn_scheme(inst, np.random.default_rng(0), table),
                    tmp_path / "warm.mst")
    assert (hashlib.sha256((tmp_path / "model.lp").read_bytes()).hexdigest(),
            hashlib.sha256((tmp_path / "warm.mst").read_bytes()).hexdigest(),
            model_digest(model)) == EXPORT_PINS[seed]


def lp_matches_reference(inst):
    """Assert write_lp's bytes are the reference writer's; returns the
    token count of every Subject To row (its terms plus ``sense rhs``)."""
    model = linearize(inst)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.lp"
        write_lp(model, path)
        assert path.read_bytes() == oracles.reference_lp_text(model).encode()
    return set((np.diff(model.indptr) + 1).tolist())


def with_zero_types(inst, zero_types):
    """The instance with every demand of the listed types set to 0."""
    inbound, outbound = inst.demands.inbound.copy(), inst.demands.outbound.copy()
    inbound[zero_types] = 0.0
    outbound[zero_types] = 0.0
    return dataclasses.replace(inst, demands=dataclasses.replace(
        inst.demands, inbound=inbound, outbound=outbound))


def with_flat_first_links(inst):
    """The instance with user 0's link 0 and ISP link 0 at basic cap 0,
    billable cap equal to the physical cap and rate 0: their cap rows
    get a 0.0 exemption coefficient, their wlb rows a -0.0 bound and the
    objective two 0.0 rates."""
    topo = inst.topology
    edge = {name: getattr(topo, name).copy() for name in
            ("edge_cap_basic", "edge_cap_billable", "edge_rate")}
    isp = {name: getattr(topo, name).copy() for name in
           ("isp_cap_basic", "isp_cap_billable", "isp_rate")}
    edge["edge_cap_basic"][0, 0] = edge["edge_rate"][0, 0] = 0.0
    edge["edge_cap_billable"][0, 0] = topo.edge_cap_phys[0, 0]
    isp["isp_cap_basic"][0] = isp["isp_rate"][0] = 0.0
    isp["isp_cap_billable"][0] = topo.isp_cap_phys[0]
    return dataclasses.replace(inst, topology=dataclasses.replace(topo, **edge, **isp))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n_users=st.integers(1, 3), n_isps=st.integers(1, 3), n_slots=st.integers(1, 40),
       n_types=st.integers(1, 3), seed=st.integers(0, 2 ** 16), full=st.booleans(),
       zero_types=st.lists(st.integers(0, 2), max_size=2, unique=True), flat=st.booleans())
@example(n_users=2, n_isps=3, n_slots=20, n_types=2, seed=3, full=False, zero_types=[1],
         flat=True)
def test_lp_bytes_equal_the_reference_writer(n_users, n_isps, n_slots, n_types, seed, full,
                                             zero_types, flat):
    inst = make_tiny(seed, n_users=n_users, n_slots=n_slots, n_types=n_types, n_isps=n_isps,
                     full_admissible=full, demand_scale=8.0)
    inst = with_zero_types(inst, [k for k in zero_types if k < n_types])
    lp_matches_reference(with_flat_first_links(inst) if flat else inst)


def test_lp_rows_wrap_like_the_reference_writer():
    # bud rows hold T terms: T = 6, 7, 8, 15, 16 put the last token at
    # positions 7, 8, 9, 16 and 17 (one-based), on either side of a wrap;
    # T = 1, 20 and 40 give m = 0, 1 and 2
    counts = set()
    for n_slots in (1, 6, 7, 8, 15, 16, 20, 40):
        inst = make_tiny(n_slots, n_users=2, n_slots=n_slots, n_types=3, n_isps=3,
                         full_admissible=False, demand_scale=8.0)
        counts |= lp_matches_reference(inst)
        counts |= lp_matches_reference(with_zero_types(inst, [0, 2]))
    assert {7, 8, 9, 16, 17} <= counts


def test_lp_text_reparses(tmp_path):
    inst = make_tiny(3, n_users=2, n_types=2, n_isps=2, demand_scale=8.0)
    model = linearize(inst)
    out = tmp_path / "model.lp"
    write_lp(model, out)
    text = out.read_text()
    assert "np.float64" not in text

    body = text[text.index("Subject To"):text.index("Binaries")]
    row_names = re.findall(r"^ (\S+):", body, flags=re.M)
    assert len(row_names) == len(model.constraints)
    assert row_names == model.constraints

    binaries_block = text[text.index("Binaries"):text.index("End")]
    listed = binaries_block.split()[1:]
    assert len(listed) == int(model.binary.sum())
    assert text.endswith("End\n")


# ---------------------------------------------------------------------------
# warm start and solution files
# ---------------------------------------------------------------------------

def test_warmstart_grammar_and_round_trip(tmp_path):
    inst = make_tiny(5, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    scheme = brute_force(inst, table=table)[0]
    path = tmp_path / "warm.txt"
    write_warmstart(model, scheme, path)

    lines = path.read_text().splitlines()
    assert lines[0] == f"# warm start for instance {inst.instance_id}"
    binary_names = [name for name, b in zip(model.variables, model.binary) if b]
    assert [l.split()[0] for l in lines[1:]] == binary_names
    assert set(l.split()[1] for l in lines[1:]) <= {"0", "1"}
    t, n, k = inst.dims
    lam_one = [l for l in lines[1:] if l.startswith("lam_") and l.endswith(" 1")]
    assert len(lam_one) == t * n * k

    # warm-start files use the same name/value grammar as solution files
    back, cost = read_solution(path, model)
    assert np.array_equal(back.option, scheme.option)
    assert cost == pytest.approx(total_cost(inst, scheme, table), abs=1e-9)


def test_warmstart_rejects_bad_scheme(tmp_path):
    inst = make_tiny(5)
    model = linearize(inst)
    scheme = brute_force(inst)[0]
    import dataclasses
    bad = dataclasses.replace(scheme, option=scheme.option[:, :, :1])
    with pytest.raises(ValueError, match="shape"):
        write_warmstart(model, bad, tmp_path / "w.txt")
    worse = dataclasses.replace(scheme, option=np.full_like(scheme.option, 9))
    with pytest.raises(ValueError, match="out of range"):
        write_warmstart(model, worse, tmp_path / "w.txt")


def test_objective_of_rejects_options_outside_the_instance():
    # n_valid is [[3, 3], [1, 1]] of P = 7: a padded or negative option
    # would price as if its block's traffic vanished, and one >= P would
    # read another block's row
    inst = make_tiny(3, n_users=2, n_slots=4, n_types=2, n_isps=3, full_admissible=False,
                     demand_scale=8.0)
    model = linearize(inst)
    assert model.table.n_options == 7
    assert model.table.n_valid.tolist() == [[3, 3], [1, 1]]
    option = np.zeros(inst.dims, dtype=np.int64)
    assert objective_of(model, option) == pytest.approx(7334.354, abs=1e-3)
    for value in (3, -1, 7):
        bad = option.copy()
        bad[0, 0, 0] = value
        with pytest.raises(ValueError, match=f"option {value} out of range at slot 0, user 0"):
            objective_of(model, bad)
    with pytest.raises(ValueError, match="shape"):
        objective_of(model, option[:, :, :1])
    # 0.9 used to be cast to option 0 and priced as the all-zero scheme
    with pytest.raises(ValueError, match="must be signed integers, got dtype float64"):
        objective_of(model, np.zeros(inst.dims) + 0.9)


def test_solution_fractional_binary_rejected(tmp_path):
    inst = make_tiny(6)
    model = linearize(inst)
    path = tmp_path / "sol.txt"
    path.write_text("lam_t0_n0_k0_p0 0.4\n")
    with pytest.raises(FormatError, match="not binary"):
        read_solution(path, model)


def test_solution_unknown_variable_rejected(tmp_path):
    inst = make_tiny(6)
    model = linearize(inst)
    path = tmp_path / "sol.txt"
    path.write_text("zz_mystery 1\n")
    with pytest.raises(FormatError, match="unknown variable"):
        read_solution(path, model)


def test_solution_non_numeric_value_rejected(tmp_path):
    inst = make_tiny(6)
    model = linearize(inst)
    path = tmp_path / "sol.txt"
    path.write_text("lam_t0_n0_k0_p0 one\n")
    with pytest.raises(FormatError, match=r"sol.txt:1: bad value for 'lam_t0_n0_k0_p0'$"):
        read_solution(path, model)


def test_solution_missing_block_rejected(tmp_path):
    inst = make_tiny(6)
    model = linearize(inst)
    path = tmp_path / "sol.txt"
    path.write_text("# nothing chosen\n")
    with pytest.raises(FormatError, match="0 chosen options"):
        read_solution(path, model)


# a repeated line used to overwrite the first: a lambda set and then
# cleared failed as "0 chosen options", while the reverse order and a
# repeated exemption binary imported silently
@pytest.mark.parametrize("name, first, last", [("lam_t0_n0_k0_p0", 1, 0),
                                               ("lam_t0_n0_k0_p0", 0, 1),
                                               ("u_in_e_n0_i0_t0", 1, 0)])
def test_solution_repeated_variable_rejected(tmp_path, name, first, last):
    inst = make_tiny(3, n_users=2, n_slots=4, n_types=2, n_isps=3, full_admissible=False,
                     demand_scale=8.0)
    model = linearize(inst)
    path = tmp_path / "sol.txt"
    write_warmstart(model, AllocationScheme(np.zeros(inst.dims, dtype=np.int64)), path)
    lines = [l for l in path.read_text().splitlines() if l.split()[0] != name]
    lines = [lines[0], f"{name} {first}", *lines[1:], f"{name} {last}"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"sol\.txt:{len(lines)}: variable '{name}' repeats "
                                          rf"line 2$"):
        read_solution(path, model)


def test_solution_objective_mismatch_rejected(tmp_path):
    inst = make_tiny(5, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    scheme = brute_force(inst, table=table)[0]
    path = tmp_path / "sol.txt"
    write_warmstart(model, scheme, path)
    with open(path, "a") as fh:
        fh.write("objective 123456.0\n")
    with pytest.raises(FormatError, match="disagrees"):
        read_solution(path, model)


def test_solution_accepts_objective_comment(tmp_path):
    inst = make_tiny(5, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    scheme, cost = brute_force(inst, table=table)
    path = tmp_path / "sol.txt"
    write_warmstart(model, scheme, path)
    with open(path, "a") as fh:
        fh.write(f"# Objective value = {cost!r}\n")
    back, got = read_solution(path, model)
    assert np.array_equal(back.option, scheme.option)
    assert got == pytest.approx(cost, abs=1e-9)


@pytest.mark.parametrize("line", ["unchosen lam", "objective"])
def test_solution_non_finite_value_rejected(tmp_path, line):
    # nan fails every comparison: a nan lam would pass the binary check as
    # 0 and a nan objective would pass the agreement check
    inst = make_tiny(5, demand_scale=8.0)
    table = build_option_table(inst.topology)
    model = linearize(inst, table)
    scheme = brute_force(inst, table=table)[0]
    path = tmp_path / "sol.txt"
    write_warmstart(model, scheme, path)
    text = path.read_text()
    if line == "objective":
        text += "objective nan\n"
    else:
        name = next(l.split()[0] for l in text.splitlines()
                    if l.startswith("lam_") and l.endswith(" 0"))
        text = text.replace(f"{name} 0\n", f"{name} nan\n")
    path.write_text(text)
    with pytest.raises(FormatError, match="not finite"):
        read_solution(path, model)


# ---------------------------------------------------------------------------
# optima agreement
# ---------------------------------------------------------------------------

def test_exhaustive_optimum_matches_order_statistic_route():
    for seed in range(6):
        inst = make_tiny(seed, demand_scale=8.0)
        table = build_option_table(inst.topology)
        model = linearize(inst, table)
        mine = exhaustive_optimum(model)
        ref = brute_force(inst, table=table)
        want = oracles.exhaustive_best(inst)
        assert (mine is None) == (ref is None) == (want is None)
        if mine is None:
            continue
        assert mine[1] == pytest.approx(ref[1], abs=1e-9)
        assert mine[1] == pytest.approx(want[0], abs=1e-9)
        assert objective_of(model, mine[0]) == pytest.approx(mine[1], rel=1e-12)


def test_solver_reaches_brute_force_optimum():
    hits = 0
    for seed in (0, 2, 5):
        inst = make_tiny(seed, demand_scale=8.0)
        table = build_option_table(inst.topology)
        model = linearize(inst, table)
        ref = brute_force(inst, table=table)
        objective, x = solve_with_scipy(model)
        assert objective == pytest.approx(ref[1], abs=1e-6)

        # decode the solver's lambda block and re-price it independently
        lam = model.blocks["lam"]
        option = ((lam >= 0) & (x[lam] > 0.5)).argmax(axis=-1)
        from ecsched.model import AllocationScheme
        assert total_cost(inst, AllocationScheme(option=option), table) == \
            pytest.approx(objective, abs=1e-6)
        if ref[1] > 0:
            hits += 1
    assert hits >= 1



def highs_objective(lp_path):
    """The optimal objective HiGHS reaches from an LP file, read with the
    private binding scipy ships; the test skips when it cannot be loaded."""
    try:
        from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs
    except ImportError:
        pytest.skip("scipy ships no loadable HiGHS binding")
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(lp_path)) == HighsStatus.kOk
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    return highs.getInfo().objective_function_value


def test_highs_reads_the_lp_text_and_reaches_the_optimum(tmp_path):
    assert highs_objective(DATA / "tiny.lp") == pytest.approx(871.6126461560564, abs=1e-6)
    for seed in (0, 2, 5):
        inst = make_tiny(seed, demand_scale=8.0)
        table = build_option_table(inst.topology)
        write_lp(linearize(inst, table), tmp_path / f"tiny-{seed}.lp")
        ref = brute_force(inst, table=table)
        assert highs_objective(tmp_path / f"tiny-{seed}.lp") == pytest.approx(ref[1], abs=1e-6)

def test_zero_demand_model_is_free():
    import dataclasses
    inst = make_tiny(7)
    zero = dataclasses.replace(
        inst, demands=dataclasses.replace(
            inst.demands,
            inbound=np.zeros_like(inst.demands.inbound),
            outbound=np.zeros_like(inst.demands.outbound)))
    model = linearize(zero)
    best = exhaustive_optimum(model)
    assert best is not None and best[1] == 0.0
    objective, _ = solve_with_scipy(model)
    assert objective == pytest.approx(0.0, abs=1e-9)
