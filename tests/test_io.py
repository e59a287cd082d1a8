"""File formats: round trips are bit-exact, parse failures name the field."""

import hashlib
import json
import re

import numpy as np
import pytest

from conftest import DESK_CONFIG, HELD_SEED0, make_tiny, rsn_scheme
from ecsched.cli import main
from ecsched.generate import GenConfig, generate_instance
from ecsched.io import (FormatError, load_json, need_array, read_instance,
                        read_scheme, write_instance, write_scheme)
from ecsched.model import AllocationScheme, build_option_table, total_cost


def test_instance_round_trip_bit_exact(tmp_path):
    inst = generate_instance(DESK_CONFIG, seed=321)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)

    assert back.instance_id == inst.instance_id
    assert back.seed == inst.seed
    for name in ("edge_cap_basic", "edge_cap_billable", "edge_cap_phys",
                 "edge_rate", "isp_cap_basic", "isp_cap_billable",
                 "isp_cap_phys", "isp_rate", "admissible"):
        assert np.array_equal(getattr(back.topology, name),
                              getattr(inst.topology, name)), name
    assert np.array_equal(back.demands.inbound, inst.demands.inbound)
    assert np.array_equal(back.demands.outbound, inst.demands.outbound)

    # bit-exact arrays imply bit-exact billing
    table = build_option_table(inst.topology)
    scheme = rsn_scheme(inst, np.random.default_rng(0), table)
    assert total_cost(back, scheme) == total_cost(inst, scheme)


# sha256 over dtype, shape and bytes of every array read_instance returns,
# plus the id and seed, for a default-size and a desk instance
READ_INSTANCE_SHA256 = "f1617d48229eeaec5c04cf4b53eb179cee81c611ff8150ed29553116c216094c"


def test_read_instance_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for config, seed in ((GenConfig(), 100001), (DESK_CONFIG, HELD_SEED0)):
        path = tmp_path / f"{seed}.json"
        write_instance(generate_instance(config, seed=seed), path)
        inst = read_instance(path)
        for name in ("edge_cap_basic", "edge_cap_billable", "edge_cap_phys",
                     "edge_rate", "isp_cap_basic", "isp_cap_billable",
                     "isp_cap_phys", "isp_rate", "admissible"):
            arr = getattr(inst.topology, name)
            digest.update(repr((name, arr.dtype.str, arr.shape)).encode())
            digest.update(arr.tobytes())
        for arr in (inst.demands.inbound, inst.demands.outbound):
            digest.update(repr((arr.dtype.str, arr.shape)).encode())
            digest.update(arr.tobytes())
        digest.update(repr((inst.instance_id, inst.seed)).encode())
    assert digest.hexdigest() == READ_INSTANCE_SHA256


# sha256 of the file write_instance writes for a default-size and a desk
# instance, and of the file write_scheme writes with both optional fields
WRITE_INSTANCE_SHA256 = {
    100001: "82be748c813a11482ae4fb5b1606b735d7ac32fa1f682312c5cee285c5875082",
    HELD_SEED0: "198747aed0723d0d363b70b5f0ac9266ce3f9bf3ba68ecaf5a4f409905c1ad14",
}
WRITE_SCHEME_SHA256 = "36d2a17fb51a70f44429af2a6ffdaa4fecadaf3bd80ba607e5184591cfefd4ae"


@pytest.mark.parametrize("config, seed", [(GenConfig(), 100001), (DESK_CONFIG, HELD_SEED0)],
                         ids=["default", "desk"])
def test_write_instance_bytes_are_pinned(tmp_path, config, seed):
    path = tmp_path / "inst.json"
    write_instance(generate_instance(config, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITE_INSTANCE_SHA256[seed]


def test_write_scheme_bytes_are_pinned(tmp_path):
    inst = generate_instance(DESK_CONFIG, seed=HELD_SEED0)
    table = build_option_table(inst.topology)
    scheme = rsn_scheme(inst, np.random.default_rng(3), table)
    path = tmp_path / "scheme.json"
    write_scheme(scheme, path, instance_id=inst.instance_id, cost=total_cost(inst, scheme, table))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITE_SCHEME_SHA256


def test_demand_nesting_is_slot_major(tmp_path):
    inst = make_tiny(1, n_users=2, n_slots=4, n_types=3, n_isps=2)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    nested = doc["demands"]["inbound"]
    assert len(nested) == 4 and len(nested[0]) == 2 and len(nested[0][0]) == 3
    for t in range(4):
        for n in range(2):
            for k in range(3):
                assert nested[t][n][k] == inst.demands.inbound[k, n, t]


def test_admissible_stored_as_bitmask(tmp_path):
    inst = make_tiny(2, n_users=2, n_types=2, n_isps=3, full_admissible=False)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    masks = doc["topology"]["admissible"]
    for q in range(2):
        for u in range(2):
            expect = sum(1 << j for j in range(3)
                         if inst.topology.admissible[q, u, j])
            assert masks[q][u] == expect


def test_scheme_round_trip(tmp_path):
    inst = make_tiny(3, n_users=2, n_slots=5, n_types=2)
    table = build_option_table(inst.topology)
    scheme = rsn_scheme(inst, np.random.default_rng(1), table)
    cost = total_cost(inst, scheme, table)
    path = tmp_path / "scheme.json"
    write_scheme(scheme, path, instance_id=inst.instance_id, cost=cost)
    back, iid, stored = read_scheme(path)
    assert np.array_equal(back.option, scheme.option)
    assert back.option.dtype == np.int64
    assert iid == inst.instance_id
    assert stored == cost


def test_scheme_optional_fields_absent(tmp_path):
    inst = make_tiny(4)
    table = build_option_table(inst.topology)
    scheme = rsn_scheme(inst, np.random.default_rng(2), table)
    path = tmp_path / "scheme.json"
    write_scheme(scheme, path)
    _, iid, cost = read_scheme(path)
    assert iid is None and cost is None


@pytest.mark.parametrize("cost", [float("inf"), float("nan")])
def test_non_finite_numbers_are_never_written(tmp_path, cost):
    scheme = AllocationScheme(option=np.zeros((1, 1, 1), dtype=np.int64))
    path = tmp_path / "scheme.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_scheme(scheme, path, cost=cost)
    assert not path.exists()


def test_missing_field_is_named(tmp_path):
    inst = make_tiny(5)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    del doc["topology"]["edge_rate"]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="edge_rate"):
        read_instance(path)


def test_truncated_file_rejected(tmp_path):
    inst = make_tiny(6)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="not valid JSON"):
        read_instance(path)


def test_wrong_format_marker_rejected(tmp_path):
    inst = make_tiny(7)
    ipath = tmp_path / "inst.json"
    write_instance(inst, ipath)
    with pytest.raises(FormatError, match="format"):
        read_scheme(ipath)


def test_unsupported_version_rejected(tmp_path):
    inst = make_tiny(8)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="version"):
        read_instance(path)


def test_demand_shape_mismatch_rejected(tmp_path):
    inst = make_tiny(9, n_slots=4)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["demands"]["inbound"] = doc["demands"]["inbound"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="shape"):
        read_instance(path)


def test_negative_option_rejected(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({
        "format": "ecsched-scheme", "version": 1,
        "option": [[[0, -1]]]}))
    with pytest.raises(FormatError, match="negative"):
        read_scheme(path)


def _swap_basic_and_half_billable(doc):
    # basic cap above billable violates the cap ordering on load
    doc["topology"]["edge_cap_basic"] = doc["topology"]["edge_cap_billable"]
    doc["topology"]["edge_cap_billable"] = [
        [v * 0.5 for v in row] for row in doc["topology"]["edge_cap_basic"]]


def _negate_one_demand(doc):
    doc["demands"]["outbound"][0][0][0] = -1.0


def test_inconsistent_topology_rejected(tmp_path):
    inst = make_tiny(10)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    clean = json.loads(path.read_text())
    for corrupt, message in ((_swap_basic_and_half_billable, "basic <= billable"),
                             (_negate_one_demand, "nonnegative")):
        doc = json.loads(json.dumps(clean))
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            read_instance(path)


def test_missing_file_raises_not_format_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_instance(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# malformed values: every one is a FormatError, and exit 3 from the CLI
# ---------------------------------------------------------------------------

def set_topology(name, value):
    def edit(doc):
        doc["topology"][name] = value
    return edit


def nan_in_topology(name):
    def edit(doc):
        grid = doc["topology"][name]
        if isinstance(grid[0], list):
            grid[0][0] = float("nan")
        else:
            grid[0] = float("nan")
    return edit


def ragged_demands(doc):
    doc["demands"]["inbound"][0][0] = doc["demands"]["inbound"][0][0][:1]


@pytest.mark.parametrize("edit, message", [
    (set_topology("edge_rate", [["x", "y"]]), "edge_rate.*not a grid of finite numbers"),
    (set_topology("edge_rate", [[True, True]]), "edge_rate.*not a grid of finite numbers"),
    (set_topology("edge_cap_phys", [[10000.0, 10000.0], [10000.0]]), "edge_cap_phys.*not a grid of finite numbers"),
    (ragged_demands, "inbound.*not a grid of finite numbers"),
    (set_topology("n_users", "1"), "n_users.*not a grid of finite integers"),
    (set_topology("admissible", [[2.5], [3]]), "admissible.*not a grid of finite integers"),
    (nan_in_topology("edge_rate"), "edge_rate.*finite"),
    (nan_in_topology("edge_cap_basic"), "edge_cap_basic.*finite"),
    (nan_in_topology("isp_cap_phys"), "isp_cap_phys.*finite"),
], ids=["string-grid", "boolean-grid", "ragged-grid", "ragged-demands", "string-n_users",
        "float-admissible", "nan-edge-rate", "nan-edge-cap-basic", "nan-isp-cap-phys"])
def test_malformed_instance_values_are_exit_3(tmp_path, edit, message):
    inst = make_tiny(11)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        read_instance(path)
    scheme_path = tmp_path / "scheme.json"
    write_scheme(AllocationScheme(option=np.zeros(inst.dims, dtype=np.int64)), scheme_path)
    assert main(["eval", "--instance", str(path), "--scheme", str(scheme_path)]) == 3


@pytest.mark.parametrize("seed, message", [
    ("abc", "not a grid of finite integers"),
    (1.5, "not a grid of finite integers"),
    (3.0, "not a grid of finite integers"),
    ([1, 2], "has shape \\(2,\\), expected \\(\\)"),
    (True, "not a grid of finite integers"),
    (float("nan"), "not a grid of finite integers"),
    (None, None),
    ("absent", None),
    (7, None),
], ids=["string", "fraction", "float", "list", "boolean", "nan", "null", "absent", "integer"])
def test_instance_seed_is_an_integer_or_null(tmp_path, seed, message):
    path = tmp_path / "inst.json"
    write_instance(make_tiny(13), path)
    doc = json.loads(path.read_text())
    if seed == "absent":
        del doc["seed"]
    else:
        doc["seed"] = seed
    path.write_text(json.dumps(doc))
    if message is not None:
        with pytest.raises(FormatError, match=f"field 'seed' in {re.escape(str(path))}.*{message}"):
            read_instance(path)
        return
    back = read_instance(path)
    assert back.seed == (None if seed == "absent" else seed)
    # a read instance writes its seed back as it was stored
    write_instance(back, tmp_path / "back.json")
    assert json.loads((tmp_path / "back.json").read_text()).get("seed") == back.seed


@pytest.mark.parametrize("cost, message", [
    ("abc", "not a grid of finite numbers"),
    ([1.0], "has shape \\(1,\\), expected \\(\\)"),
    (True, "not a grid of finite numbers"),
    (float("nan"), "not a grid of finite numbers"),
    (float("inf"), "not a grid of finite numbers"),
    (None, None),
    ("absent", None),
    (5, None),
    (12.25, None),
], ids=["string", "list", "boolean", "nan", "infinity", "null", "absent", "integer", "float"])
def test_scheme_cost_is_a_number_or_null(tmp_path, cost, message):
    doc = {"format": "ecsched-scheme", "version": 1, "option": [[[0]]]}
    if cost != "absent":
        doc["cost"] = cost
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(doc))
    if message is not None:
        with pytest.raises(FormatError, match=f"field 'cost' in {re.escape(str(path))}.*{message}"):
            read_scheme(path)
        return
    _, _, stored = read_scheme(path)
    if cost in (None, "absent"):
        assert stored is None
    else:
        assert type(stored) is float and stored == cost


def test_fractional_option_is_rejected_not_truncated(tmp_path):
    inst = make_tiny(12)
    inst_path = tmp_path / "inst.json"
    write_instance(inst, inst_path)
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({
        "format": "ecsched-scheme", "version": 1,
        "option": np.full(inst.dims, 0.5).tolist()}))
    with pytest.raises(FormatError, match="option.*not a grid of finite integers"):
        read_scheme(path)
    assert main(["eval", "--instance", str(inst_path), "--scheme", str(path)]) == 3


def test_integer_fields_take_only_json_integers(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({
        "format": "ecsched-scheme", "version": 1, "option": [[[1.0, 0]]]}))
    with pytest.raises(FormatError, match="option.*not a grid of finite integers"):
        read_scheme(path)


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{", "not valid JSON"),
    (b"[1, 2]", "top level must be a JSON object"),
    (b"3", "top level must be a JSON object"),
], ids=["undecodable", "list", "number"])
def test_load_json_needs_a_decodable_object(tmp_path, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=message):
        load_json(path)


def test_directory_path_is_exit_3(tmp_path):
    with pytest.raises(FormatError, match="Is a directory"):
        read_instance(tmp_path)
    assert main(["eval", "--instance", str(tmp_path), "--scheme", str(tmp_path)]) == 3


@pytest.mark.parametrize("value, kwargs, message", [
    ([[1, 2], [3, 4]], {}, None),
    ([[1, 2], [3, 4]], {"shape": (2, None)}, None),
    ([[1, 2], [3, 4]], {"shape": (None,)}, "has shape \\(2, 2\\)"),
    ([[1, 2], [3, 4]], {"shape": (2, 3)}, "has shape \\(2, 2\\), expected \\(2, 3\\)"),
    ([[1.5, 2]], {"integer": True}, "not a grid of finite integers"),
    ([2 ** 63], {"integer": True}, "not a grid of finite integers"),
    ([[1, 2], [3]], {}, "not a grid of finite numbers"),
    ([1, None], {}, "not a grid of finite numbers"),
    ({"a": 1}, {}, "not a grid of finite numbers"),
    ([1.0, float("inf")], {}, "not a grid of finite numbers"),
    ([True], {"integer": True}, "not a grid of finite integers"),
], ids=["plain", "open-axis", "wrong-rank", "wrong-length", "fractional", "overflow", "ragged",
        "null", "object", "infinity", "boolean"])
def test_need_array(value, kwargs, message):
    if message is None:
        arr = need_array({"x": value}, "x", "doc", **kwargs)
        assert arr.dtype == np.float64 and arr.tolist() == value
    else:
        with pytest.raises(FormatError, match=f"field 'x' in doc .*{message}"):
            need_array({"x": value}, "x", "doc", **kwargs)
    with pytest.raises(FormatError, match="missing field 'y' in doc"):
        need_array({"x": value}, "y", "doc", **kwargs)
