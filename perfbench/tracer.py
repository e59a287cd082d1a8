"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the package: it replaces a public function at
the module attribute its caller looks up (``ecsched.sampler.mlp_forward``
for the encoders, ``ecsched.baselines.evaluate_hard`` for the uniform
sampler, and so on), records one span per call, and puts the original
back when the run ends.  Spans stay in memory as
``[span id, parent id, name, start, end, attrs]`` and are written out
once, after the run.

A span's self time is its duration minus the part of its interval that
its direct children cover.  Spans are timed in process CPU seconds, the
clock of the untraced run.
"""

import contextlib
import functools
import json
import os
import time

ENCODERS = ("link", "program", "ranking")


class Tracer:
    """In-memory span recorder; only records while ``active`` is set."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = []
        self.active = False
        self._stack = []
        self._encoder_labels = {}

    def label_network(self, network):
        """Name the network's encoders so mlp spans can be split by encoder."""
        for label in ENCODERS:
            self._encoder_labels[id(getattr(network, label))] = label

    def encoder_label(self, mlp):
        return self._encoder_labels.get(id(mlp), "unlabelled")

    def open(self, name):
        span = [len(self.spans) + 1, self._stack[-1][0] if self._stack else 0,
                name, self.clock(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[4] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def recording(self):
        """Record spans inside the block (the timed regions of a run)."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs}))
                fh.write("\n")


def self_times(spans):
    """Self seconds per span id: duration minus the union of its children."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(sid, ()), key=lambda s: s[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def _wrap(tracer, fn, name, attrs=None):
    """Traced stand-in for fn; name may be a callable of the call's args."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name(tracer, args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span[5].update(attrs(args, kwargs, result))
        return result

    return traced


def _mlp_name(kind):
    """Span name of an mlp call, split by the encoder passed in."""
    def name(tracer, args):
        return f"nn.{kind}.{tracer.encoder_label(args[0])}"
    name.names = tuple(f"nn.{kind}.{e}" for e in ENCODERS)
    return name


def _rows(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _policy(policy):
    return lambda args, kwargs, result: {"policy": policy, "feasible": bool(result[1])}


def _combinations(args, kwargs, result):
    combos = 1
    for count in args[0]:
        combos *= int(count)
    return {"combinations": combos}


def _milp_size(args, kwargs, result):
    return {"rows": len(result.constraints), "variables": len(result.variables)}


def _lp_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def patch_points():
    """(module, attribute, span name, attrs) for every traced call site."""
    from ecsched import _kernels, baselines, generate, gumbel, io, milp, model, sampler

    return [
        (generate, "generate_instance", "generate.generate_instance", None),
        (io, "read_instance", "io.read_instance", None),
        (sampler, "load_model", "sampler.load_model", None),
        (sampler, "preprocess", "sampler.preprocess", None),
        (sampler, "forward_alpha", "sampler.forward_alpha", None),
        (sampler, "mlp_forward", _mlp_name("mlp_forward"), _rows),
        (sampler, "mlp_backward", _mlp_name("mlp_backward"), None),
        (sampler, "adam_step", "nn.adam_step", None),
        (gumbel, "sample_gumbel", "gumbel.sample_gumbel", None),
        (gumbel, "concrete_rows_given", "gumbel.concrete_rows_given", None),
        (gumbel, "categorical_rows", "gumbel.categorical_rows", None),
        (sampler, "soft_loss_and_grad", "model.soft_loss_and_grad", None),
        (sampler, "soft_loss", "model.soft_loss", None),
        (model, "soft_loss", "model.soft_loss", None),
        (model, "compute_flows", "model.compute_flows", None),
        (sampler, "evaluate_hard", "model.evaluate_hard", _policy("gssn")),
        (baselines, "evaluate_hard", "model.evaluate_hard", _policy("rsn")),
        (_kernels, "soft_edge_flows", "kernels.soft_edge_flows", None),
        (_kernels, "hard_edge_flows", "kernels.hard_edge_flows", None),
        (_kernels, "brute_force_search", "kernels.brute_force_search", _combinations),
        (milp, "linearize", "milp.linearize", _milp_size),
        (milp, "write_lp", "milp.write_lp", _lp_bytes),
        (milp, "write_warmstart", "milp.write_warmstart", None),
        (milp, "read_solution", "milp.read_solution", None),
        (sampler, "train", "sampler.train", None),
        (sampler, "best_of_detailed", "sampler.best_of_detailed", None),
        (baselines, "rsn_best_of_detailed", "baselines.rsn_best_of_detailed", None),
        (baselines, "brute_force", "baselines.brute_force", None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Swap every patch point for its traced stand-in; restore on exit."""
    saved = []
    try:
        for module, attr, name, attrs in patch_points():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, attrs))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_names():
    """Every reported span name, in patch-point order."""
    names = {}
    for _, _, name, _ in patch_points():
        names.update(dict.fromkeys(getattr(name, "names", (name,))))
    return tuple(names)


# summed span attributes reported as "<span>.<attr>"
COUNTED = {
    **{f"nn.mlp_forward.{e}": ("rows",) for e in ENCODERS},
    "kernels.brute_force_search": ("combinations",),
    "milp.linearize": ("rows", "variables"),
    "milp.write_lp": ("bytes",),
}

POLICIES = ("gssn", "rsn")


def layer_metrics(spans):
    """Per-layer metrics: calls and self seconds per span name, plus counts."""
    own = self_times(spans)
    names = span_names()
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    counted = {name: dict.fromkeys(keys, 0) for name, keys in COUNTED.items()}
    draws = {p: [0, 0] for p in POLICIES}
    for sid, _, name, _, _, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        for key in COUNTED.get(name, ()):
            counted[name][key] += attrs[key]
        if "policy" in attrs:
            draws[attrs["policy"]][0] += attrs["feasible"]
            draws[attrs["policy"]][1] += 1
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name, values in counted.items():
        for key, value in values.items():
            metrics[f"{name}.{key}"] = (value, key if key == "bytes" else "count")
    for policy, (feasible, total) in draws.items():
        metrics[f"model.evaluate_hard.{policy}.feasible_ratio"] = (
            feasible / total if total else 0.0, "ratio")
    return metrics
