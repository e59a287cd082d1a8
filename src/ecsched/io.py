"""Instance and scheme files.

Both formats are versioned JSON.  Floats pass through Python's repr, so
a write/read round trip reproduces every array bit for bit.  Demand
arrays are stored as nested lists indexed [slot][user][type] (slot
outermost); admissible sets are stored per (type, user) as a bitmask
over links, bit j = link j.

Parse failures raise FormatError naming the missing or malformed field;
the CLI maps that to exit code 3.
"""

import json

import numpy as np

from .model import DemandTensor, Instance, AllocationScheme, Topology

INSTANCE_FORMAT = "ecsched-instance"
SCHEME_FORMAT = "ecsched-scheme"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """A file does not conform to one of the documented formats."""


def _need(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise FormatError(f"missing field '{key}' in {where}")
    return mapping[key]


def _load_json(path, expect_format):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    got = _need(doc, "format", path)
    if got != expect_format:
        raise FormatError(f"{path}: format is '{got}', expected '{expect_format}'")
    version = _need(doc, "version", path)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    return doc


def _demand_lists(arr):
    # (K, N, T) -> [t][n][k]
    return arr.transpose(2, 1, 0).tolist()


def _demand_array(nested, t, n, k, where):
    arr = np.asarray(nested, dtype=float)
    if arr.shape != (t, n, k):
        raise FormatError(f"{where}: demand array has shape {arr.shape}, expected {(t, n, k)}")
    return np.ascontiguousarray(arr.transpose(2, 1, 0))


def write_instance(instance, path):
    topo = instance.topology
    k, n, el = topo.admissible.shape
    masks = [[int(sum(1 << j for j in range(el) if topo.admissible[q, u, j]))
              for u in range(n)] for q in range(k)]
    doc = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "id": instance.instance_id,
        "seed": instance.seed,
        "topology": {
            "n_users": n,
            "n_isps": el,
            "n_types": k,
            "n_slots": instance.demands.n_slots,
            "edge_cap_basic": topo.edge_cap_basic.tolist(),
            "edge_cap_billable": topo.edge_cap_billable.tolist(),
            "edge_cap_phys": topo.edge_cap_phys.tolist(),
            "edge_rate": topo.edge_rate.tolist(),
            "isp_cap_basic": topo.isp_cap_basic.tolist(),
            "isp_cap_billable": topo.isp_cap_billable.tolist(),
            "isp_cap_phys": topo.isp_cap_phys.tolist(),
            "isp_rate": topo.isp_rate.tolist(),
            "admissible": masks,
        },
        "demands": {
            "inbound": _demand_lists(instance.demands.inbound),
            "outbound": _demand_lists(instance.demands.outbound),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_instance(path):
    doc = _load_json(path, INSTANCE_FORMAT)
    topo_doc = _need(doc, "topology", path)
    n = _need(topo_doc, "n_users", "topology")
    el = _need(topo_doc, "n_isps", "topology")
    k = _need(topo_doc, "n_types", "topology")
    t = _need(topo_doc, "n_slots", "topology")

    def edge(name):
        arr = np.asarray(_need(topo_doc, name, "topology"), dtype=float)
        if arr.shape != (n, el):
            raise FormatError(f"{path}: topology.{name} has shape {arr.shape}, expected {(n, el)}")
        return arr

    def isp(name):
        arr = np.asarray(_need(topo_doc, name, "topology"), dtype=float)
        if arr.shape != (el,):
            raise FormatError(f"{path}: topology.{name} has shape {arr.shape}, expected {(el,)}")
        return arr

    masks = _need(topo_doc, "admissible", "topology")
    admissible = np.zeros((k, n, el), dtype=bool)
    try:
        for q in range(k):
            for u in range(n):
                mask = int(masks[q][u])
                for j in range(el):
                    admissible[q, u, j] = bool(mask >> j & 1)
    except (TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"{path}: topology.admissible must be a {k}x{n} integer grid") from exc

    # every field is parsed before any is checked, so a missing field is
    # reported ahead of an invalid value
    arrays = dict(
        edge_cap_basic=edge("edge_cap_basic"),
        edge_cap_billable=edge("edge_cap_billable"),
        edge_cap_phys=edge("edge_cap_phys"),
        edge_rate=edge("edge_rate"),
        isp_cap_basic=isp("isp_cap_basic"),
        isp_cap_billable=isp("isp_cap_billable"),
        isp_cap_phys=isp("isp_cap_phys"),
        isp_rate=isp("isp_rate"),
    )
    demands_doc = _need(doc, "demands", path)
    d_in = _demand_array(_need(demands_doc, "inbound", "demands"), t, n, k, path)
    d_out = _demand_array(_need(demands_doc, "outbound", "demands"), t, n, k, path)
    instance_id = _need(doc, "id", path)
    try:
        return Instance(topology=Topology(**arrays, admissible=admissible),
                        demands=DemandTensor(inbound=d_in, outbound=d_out),
                        instance_id=instance_id, seed=doc.get("seed"))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_scheme(scheme, path, instance_id=None, cost=None):
    doc = {
        "format": SCHEME_FORMAT,
        "version": FORMAT_VERSION,
        "option": scheme.option.tolist(),
    }
    if instance_id is not None:
        doc["instance_id"] = instance_id
    if cost is not None:
        doc["cost"] = float(cost)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_scheme(path):
    """Returns (scheme, instance_id or None, cost or None)."""
    doc = _load_json(path, SCHEME_FORMAT)
    try:
        option = np.asarray(_need(doc, "option", path), dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"{path}: option grid is not integer") from exc
    if option.ndim != 3:
        raise FormatError(f"{path}: option grid must be [slot][user][type]")
    if (option < 0).any():
        raise FormatError(f"{path}: negative option index")
    return AllocationScheme(option=option), doc.get("instance_id"), doc.get("cost")
