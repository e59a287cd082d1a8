"""File formats: round trips are bit-exact, parse failures name the field."""

import json

import numpy as np
import pytest

from conftest import DESK_CONFIG, make_tiny
from ecsched import baselines
from ecsched.generate import generate_instance
from ecsched.io import (FormatError, read_instance, read_scheme,
                        write_instance, write_scheme)
from ecsched.model import build_option_table, total_cost


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
    scheme = baselines.rsn_sample(inst, np.random.default_rng(0), table)
    assert total_cost(back, scheme) == total_cost(inst, scheme)


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
    scheme = baselines.rsn_sample(inst, np.random.default_rng(1), table)
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
    scheme = baselines.rsn_sample(inst, np.random.default_rng(2), table)
    path = tmp_path / "scheme.json"
    write_scheme(scheme, path)
    _, iid, cost = read_scheme(path)
    assert iid is None and cost is None


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
