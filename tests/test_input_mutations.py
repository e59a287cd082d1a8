"""Malformed inputs never escape the CLI as a traceback.

Each test takes one valid file, changes one field of it (a wrong JSON
type, a bare NaN or Infinity token, a short or ragged list, a deleted
key, or a top level that is not an object) and runs the command that
reads it.  The solver solution file is text, so its lines are edited
instead.  Whatever the change, ``main`` must answer with an exit code:
0 when the file is still valid, 2 when no result exists, 3 when the file
is rejected.
"""

import copy
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_tiny
from ecsched import io, sampler
from ecsched.cli import main
from ecsched.generate import GenConfig
from ecsched.model import AllocationScheme
from ecsched.sampler import TrainConfig

EXIT_CODES = (0, 2, 3)
MUTATIONS = ("string", "boolean", "null", "object", "nan", "infinity",
             "short", "ragged", "delete")
property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def field_paths(doc, prefix=()):
    """Paths to every value of doc; a list's first entry stands for all."""
    paths = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            paths += field_paths(value, prefix + (key,))
    elif isinstance(doc, list) and doc:
        paths += field_paths(doc[0], prefix + (0,))
    return paths


def replacement(value, how):
    if how == "short":
        return value[:-1] if isinstance(value, list) else []
    if how == "ragged":
        return value + [value[:1]] if isinstance(value, list) else [value, [value]]
    return {"string": "x", "boolean": True, "null": None, "object": {},
            "nan": float("nan"), "infinity": float("inf")}[how]


def mutated(doc, path, how):
    """A copy of doc with the value at path changed; at the empty path the
    whole document is replaced, so the top level is no longer an object."""
    if not path:
        return replacement(doc, "short" if how == "delete" else how)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement(parent[path[-1]], how)
    return doc


def mutations_of(doc):
    return st.tuples(st.sampled_from(field_paths(doc)), st.sampled_from(MUTATIONS))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    inst = make_tiny(21, n_isps=2)
    io.write_instance(inst, root / "inst.json")
    io.write_scheme(AllocationScheme(option=np.zeros(inst.dims, dtype=np.int64)),
                    root / "scheme.json", instance_id=inst.instance_id, cost=0.0)
    sampler.save_model(sampler.create_network(n_links=2, seed=4), root / "model.json")
    assert main(["gen", "--count", "2", "--users", "1", "--slots", "3", "--types", "2",
                 "--isps", "2", "--seed", "60", "--out", str(root / "insts")]) == 0
    return root


def read_doc(path):
    return json.loads(path.read_text())


def write_doc(path, doc):
    # json.dumps writes NaN and Infinity as bare tokens, which json.load reads back
    path.write_text(json.dumps(doc))
    return str(path)


def assert_mutations_answer(workspace, name, argv, fix_up=None):
    """Every mutation of the file called name gets an exit code from the
    command argv, in which name stands for the mutated copy."""
    valid = read_doc(workspace / name)

    @property_settings
    @given(mutations_of(valid))
    def check(mutation):
        doc = mutated(valid, *mutation)
        if fix_up is not None:
            doc = fix_up(doc, mutation[0])
        bad = write_doc(workspace / f"bad-{name}", doc)
        assert main([bad if a == name else a for a in argv]) in EXIT_CODES

    check()


def test_instance_mutations_exit_cleanly(workspace):
    assert_mutations_answer(workspace, "inst.json", [
        "eval", "--instance", "inst.json", "--scheme", str(workspace / "scheme.json")])


def test_scheme_mutations_exit_cleanly(workspace):
    assert_mutations_answer(workspace, "scheme.json", [
        "eval", "--instance", str(workspace / "inst.json"), "--scheme", "scheme.json"])


def with_checksum(doc, path):
    # a mutated encoder block gets a matching checksum, so it reaches the
    # encoder reader instead of stopping at the integrity check
    if path[:1] == ("encoders",) and isinstance(doc, dict) and "encoders" in doc:
        doc["checksum"] = sampler._payload_checksum(doc["encoders"])
    return doc


def test_model_mutations_exit_cleanly(workspace):
    assert_mutations_answer(workspace, "model.json", [
        "sample", "--policy", "gssn", "--model", "model.json",
        "--instance", str(workspace / "inst.json"), "--samples", "5",
        "--out", str(workspace / "sampled.json")], fix_up=with_checksum)


@pytest.mark.parametrize("command", ["gen", "train"])
def test_config_mutations_exit_cleanly(workspace, command):
    if command == "gen":
        config = asdict(GenConfig(n_users=1, n_slots=3, n_types=2, n_isps=2))
        argv = ["gen", "--count", "1", "--out", str(workspace / "gen-out")]
    else:
        config = asdict(TrainConfig(n_epochs=1, metric_samples=1))
        argv = ["train", "--instances", str(workspace / "insts"),
                "--out", str(workspace / "trained.json")]
    write_doc(workspace / "config.json", config)
    assert_mutations_answer(workspace, "config.json", argv + ["--config", "config.json"])


def edited_lines(lines, index, how, junk):
    """lines with line index dropped, repeated, halved, given a junk name
    or value, or preceded by a line of junk bytes."""
    lines = list(lines)
    name, _, value = lines[index].partition(b" ")
    if how == "drop":
        del lines[index]
    elif how == "repeat":
        lines.insert(index, lines[index])
    elif how == "halve":
        lines[index] = lines[index][:len(lines[index]) // 2]
    elif how == "name":
        lines[index] = junk + b" " + value
    elif how == "value":
        lines[index] = name + b" " + junk
    else:
        lines.insert(index, junk)
    return lines


def test_solution_mutations_exit_cleanly(workspace):
    inst = str(workspace / "inst.json")
    solution = workspace / "solution.mst"
    assert main(["export-milp", "--instance", inst, "--out", str(workspace / "model.lp"),
                 "--warmstart", str(workspace / "scheme.json"),
                 "--warmstart-out", str(solution)]) == 0
    lines = solution.read_bytes().split(b"\n")
    bad = workspace / "bad-solution.mst"

    @property_settings
    @given(st.integers(0, len(lines) - 1),
           st.sampled_from(("drop", "repeat", "halve", "name", "value", "junk")),
           st.binary(max_size=8))
    def check(index, how, junk):
        bad.write_bytes(b"\n".join(edited_lines(lines, index, how, junk)))
        assert main(["import-solution", "--instance", inst, "--solution", str(bad),
                     "--out", str(workspace / "imported.json")]) in EXIT_CODES

    check()
