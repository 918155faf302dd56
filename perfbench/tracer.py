"""Spans around calls into cvshape's layers, recorded from outside the package.

A layer is a public function or method of one cvshape module.  Tracing
replaces it, for as long as a ``patched`` block lasts, in every cvshape
module namespace that holds it (the defining module and each caller
that imported it by name), so calls between modules are seen without
changing the package.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _apply_flops(args, kwargs, result):
    dim = args[1].matrix.shape[0]
    return 4.0 * dim**3  # computed: S @ cov @ S.T is two (2N)^3 multiply-adds


def _trials(args, kwargs, result):
    return float(args[1] if len(args) > 1 else kwargs["trials"])


#: (layer, extra quantity name or None, extra measure(args, kwargs, result)).
LAYERS = (
    ("cli.main", None, None),
    ("experiments.ExperimentConfig.from_file", None, None),
    ("experiments.run", None, None),
    ("experiments.emit", "bytes", lambda a, k, r: float(len(r.encode()))),
    ("graphs.parse_graph_text", None, None),
    ("graphs.build_canonical", None, None),
    ("graphs.canonical_transform", None, None),
    ("graphs.compile_network", None, None),
    ("graphs.NetworkPlan.interferometer_transform", None, None),
    ("graphs.nullifiers_of", None, None),
    ("gaussian.apply", "dense_flops", _apply_flops),
    ("gaussian.apply_loss", None, None),
    ("gaussian.LossModel.apply_stage", None, None),
    ("criteria.check_cluster_criteria", None, None),
    ("shaping.execute_ensemble", None, None),
    ("shaping.run_trajectory", "trials", _trials),
    ("decompositions.bloch_messiah", None, None),
    ("decompositions.unitary_to_elements", "elements", lambda a, k, r: float(len(r))),
)


def _targets(layer: str):
    """Yield (owner, attribute, original) for every binding of one layer."""
    module_name, _, path = layer.partition(".")
    module = sys.modules[f"cvshape.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        yield owner, attr, owner.__dict__[attr]
        return
    original = getattr(module, path)
    for name, mod in list(sys.modules.items()):
        if (name == "cvshape" or name.startswith("cvshape.")) and vars(mod).get(path) is original:
            yield mod, path, original


@contextmanager
def patched(layers, make_wrapper):
    """Replace each named layer by ``make_wrapper(layer, function)`` inside the block."""
    saved = []
    try:
        for layer in layers:
            for owner, attr, original in list(_targets(layer)):
                if isinstance(original, classmethod):
                    replacement = classmethod(make_wrapper(layer, original.__func__))
                else:
                    replacement = make_wrapper(layer, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder.

    Each span is [layer, start, end, parent span index or -1, op id, extra].
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._extras = {layer: measure for layer, _, measure in LAYERS}

    def installed(self):
        return patched([layer for layer, _, _ in LAYERS], self._wrap)

    def _wrap(self, layer, function):
        spans, stack, measure = self.spans, self._stack, self._extras[layer]

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def per_op(self):
        """op id -> {layer: [self_s, calls, inclusive_s, extra]}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for k, (name, start, end, parent, op, extra) in enumerate(self.spans):
            entry = table.setdefault(op, {}).setdefault(name, [0.0, 0, 0.0, 0.0])
            entry[0] += end - start - child_time[k]
            entry[1] += 1
            entry[2] += end - start
            entry[3] += extra
        return table

    def layer_metrics(self, ops, cycle: int) -> dict:
        """Per-layer metrics over traced op ids; counts use whole cycles only."""
        table = self.per_op()
        whole = ops[: len(ops) - len(ops) % cycle] or ops
        out = {}
        for layer, extra_name, _ in LAYERS:
            rows = [table.get(op, {}).get(layer, [0.0, 0, 0.0, 0.0]) for op in ops]
            counted = [table.get(op, {}).get(layer, [0.0, 0, 0.0, 0.0]) for op in whole]
            calls = sum(r[1] for r in counted)
            out[f"{layer}.self_s"] = statistics.median(r[0] for r in rows)
            out[f"{layer}.calls"] = calls / len(whole)
            if extra_name == "trials":
                busy = sum(r[2] for r in rows)
                out[f"{layer}.trials_per_s"] = sum(r[3] for r in rows) / busy if busy else 0.0
            elif extra_name == "elements":
                out[f"{layer}.elements"] = sum(r[3] for r in counted) / calls if calls else 0.0
            elif extra_name is not None:
                out[f"{layer}.{extra_name}"] = sum(r[3] for r in counted) / len(whole)
        return out

    def write(self, path):
        """Write spans as gzipped JSON lines [name, start, end, parent, op, extra]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
