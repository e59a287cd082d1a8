"""Instance and scheme files, and the reader and writer behind every file.

Both formats are versioned JSON.  Floats pass through Python's repr, so
a write/read round trip reproduces every array bit for bit.  Demand
arrays are stored as nested lists indexed [slot][user][type] (slot
outermost); admissible sets are stored per (type, user) as a bitmask
over links, bit j = link j.

Every JSON input (instance, scheme, model and config file) is decoded
by ``load_json`` and its grids converted by ``need_array``; failures
raise FormatError naming the field, which the CLI maps to exit code 3.
Every JSON output (instance, scheme and model file) is written by
``write_json``, and the LP, warm-start and CSV text by ``write_text``.
"""

import json
from dataclasses import fields

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


def read_text(path, kind):
    """Text at path, line ends read as "\\n"; FormatError for a directory or undecodable bytes."""
    try:
        with open(path) as fh:
            return fh.read()
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid {kind} ({exc})") from exc


def write_text(path, text):
    """Write text to path, replacing any file there.  Line ends are
    written as given, so the bytes do not depend on the platform."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_json(path, doc):
    """Write doc to path as one line of JSON and a newline; ValueError,
    before anything is written, for a NaN or infinite number."""
    write_text(path, json.dumps(doc, allow_nan=False) + "\n")


def load_json(path, expect_format=None, version=FORMAT_VERSION):
    """The JSON object stored at path, checked for format and version when
    expect_format is given; a missing file stays FileNotFoundError."""
    text = read_text(path, "JSON")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    if expect_format is not None:
        got = _need(doc, "format", path)
        if got != expect_format:
            raise FormatError(f"{path}: format is '{got}', expected '{expect_format}'")
        if _need(doc, "version", path) != version:
            raise FormatError(f"{path}: unsupported version {doc['version']}")
    return doc


def need_array(mapping, key, where, shape=None, integer=False):
    """mapping[key] as a float64 array, or int64 when integer is set.

    FormatError unless the value is a grid of finite numbers, or of JSON
    integers within int64 when integer is set: not ragged, and no strings
    or grid of booleans.  A None entry of shape admits any length.
    """
    value = _need(mapping, key, where)
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in ("i" if integer else "iuf") and np.isfinite(arr).all()
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        kind = "integers" if integer else "numbers"
        raise FormatError(f"field '{key}' in {where} is not a grid of finite {kind}")
    arr = arr.astype(np.int64 if integer else float, copy=False)
    if shape is not None and (arr.ndim != len(shape) or any(
            want not in (None, got) for got, want in zip(arr.shape, shape))):
        raise FormatError(f"field '{key}' in {where} has shape {arr.shape}, expected {shape}")
    return arr


def _optional_scalar(doc, key, where, integer=False):
    """doc[key] as an int (integer set) or a float; None when it is null
    or absent."""
    if doc.get(key) is None:
        return None
    return (int if integer else float)(need_array(doc, key, where, shape=(), integer=integer))


def write_instance(instance, path):
    topo = instance.topology
    k, n, el = topo.admissible.shape
    arrays = {f.name: getattr(topo, f.name).tolist()
              for f in fields(Topology) if f.name != "admissible"}
    write_json(path, {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "id": instance.instance_id,
        "seed": instance.seed,
        "topology": {
            "n_users": n,
            "n_isps": el,
            "n_types": k,
            "n_slots": instance.demands.n_slots,
            **arrays,
            # the inverse of read_instance's masks >> arange(EL) & 1
            "admissible": (topo.admissible << np.arange(el)).sum(axis=2).tolist(),
        },
        # (K, N, T) -> [t][n][k]
        "demands": {name: getattr(instance.demands, name).transpose(2, 1, 0).tolist()
                    for name in ("inbound", "outbound")},
    })


def read_instance(path):
    doc = load_json(path, INSTANCE_FORMAT)
    topo_doc = _need(doc, "topology", path)
    where = f"topology of {path}"
    n, el, k, t = (int(need_array(topo_doc, name, where, shape=(), integer=True))
                   for name in ("n_users", "n_isps", "n_types", "n_slots"))
    masks = need_array(topo_doc, "admissible", where, shape=(k, n), integer=True)
    # every field is parsed before any is checked, so a missing field is
    # reported ahead of an invalid value
    arrays = {f.name: need_array(topo_doc, f.name, where,
                                 shape=(el,) if f.name.startswith("isp_") else (n, el))
              for f in fields(Topology) if f.name != "admissible"}
    # the link arrays have now shown el to be the real link count
    admissible = (masks[:, :, None] >> np.arange(el) & 1).astype(bool)
    demands_doc = _need(doc, "demands", path)
    demands = {name: need_array(demands_doc, name, f"demands of {path}", shape=(t, n, k))
               .transpose(2, 1, 0) for name in ("inbound", "outbound")}  # (K, N, T)
    instance_id = _need(doc, "id", path)
    seed = _optional_scalar(doc, "seed", path, integer=True)
    try:
        return Instance(topology=Topology(**arrays, admissible=admissible),
                        demands=DemandTensor(**demands),
                        instance_id=instance_id, seed=seed)
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
    write_json(path, doc)


def read_scheme(path):
    """Returns (scheme, instance_id or None, cost or None); options are [t][n][k]."""
    doc = load_json(path, SCHEME_FORMAT)
    option = need_array(doc, "option", path, shape=(None, None, None), integer=True)
    if (option < 0).any():
        raise FormatError(f"{path}: negative option index")
    return AllocationScheme(option=option), doc.get("instance_id"), _optional_scalar(doc, "cost", path)
