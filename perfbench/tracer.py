"""Span tracer for ncprob's public functions, installed from outside the package.

The tracer wraps each name in ``TARGETS`` and records one span per call:
name, start, end, parent span and pass id.  Spans stay in memory (flat
arrays) and are written out once, by :meth:`Tracer.save`, at the end of a run.

A wrapper goes into every namespace that binds the original function: each
``ncprob`` module's globals (``from .hilbert_module import apply_blocks``
makes a second binding in ``dilation`` and ``suites``), dicts held in module
globals (``suites._SUITE_FUNCTIONS``) and, for methods, the class itself.
Callers outside the package must reach the functions through module
attributes (``serialization.emit_json``), not through their own
``from ... import`` bindings, or their calls go untraced.

``linalg`` helpers are not wrapped: their time is counted in their callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# layer -> public names wrapped in that layer; a dotted name is a method
TARGETS: dict[str, tuple[str, ...]] = {
    "algebra_core": (
        "MatrixStarAlgebra.coords",
        "verify_positive_map",
        "iterate_map",
    ),
    "hilbert_module": (
        "compose_blocks",
        "apply_blocks",
        "inner_product",
        "LeftAction.blocks_of",
        "ModuleTensor.tensor_vector",
        "ModuleTensor.op_left",
        "ModuleTensor.op_right",
        "tensor_over_base",
        "quotient_null_space",
        "gns_construct",
    ),
    "independence": (
        "JointRealization.moment",
        "monotone_moment_formula",
        "conditional_monotone_moment_formula",
        "tensor_moment_formula",
    ),
    "dilation": (
        "DiscreteProductSystem.build",
        "DiscreteProductSystem.theta_blocks",
        "DiscreteProductSystem.extend",
        "DiscreteProductSystem.embed_window",
        "DiscreteProductSystem.isometry_blocks",
        "white_noise_increment_check",
        "MarkovModel.path_moment",
        "verify_dilation",
        "verify_product_system",
    ),
    "serialization": (
        "load_json_file",
        "words_from_json",
        "independence_scenario_from_json",
        "emit_json",
    ),
    "suites": (
        "suite_algebra",
        "suite_module",
        "suite_monotone",
        "suite_conditional_monotone",
        "suite_conditional_tensor",
        "suite_dilation",
        "suite_white_noise",
        "suite_markov",
    ),
}

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{name}" for layer, names in TARGETS.items() for name in names
)
ROOT = len(SPAN_NAMES)  # name id of the per-pass root span
_SUITE_IDS = frozenset(i for i, n in enumerate(SPAN_NAMES) if n.startswith("suites."))
_QUOTIENT = SPAN_NAMES.index("hilbert_module.quotient_null_space")
_EMIT = SPAN_NAMES.index("serialization.emit_json")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced pass yields, as (name, unit)."""
    out = []
    for i, name in enumerate(SPAN_NAMES):
        if i in _SUITE_IDS:
            out += [(f"{name}.wall_s", "s"), (f"{name}.failed", "count")]
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for layer in TARGETS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("hilbert_module.quotient.kept_ratio", "ratio"),
        ("serialization.emit_json.bytes", "bytes"),
        ("dilation.BudgetExceededError.raises", "count"),
    ]
    return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncprob" or name.startswith("ncprob."))]


class Tracer:
    """Install wrappers, record spans per pass, aggregate per-layer metrics."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock  # what span start and end times are read from
        self.nids = array("i")
        self.parents = array("q")
        self.pass_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._pass_id = -1
        self._pass_begin = 0
        self._pass_ranges: dict[int, tuple[int, int]] = {}
        # per-span side data, keyed by span index
        self.quotients: dict[int, tuple[int, int]] = {}  # raw rank, survivors
        self.emitted: dict[int, int] = {}  # bytes of outermost emit_json calls
        self.suite_failed: dict[int, int] = {}
        self.raised: dict[int, str] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.originals: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for nid, full in enumerate(SPAN_NAMES):
            layer, qual = full.split(".", 1)
            module = importlib.import_module(f"ncprob.{layer}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self.originals[full] = raw.__func__
                    wrapped = classmethod(self._wrap(raw.__func__, nid))
                else:
                    self.originals[full] = raw
                    wrapped = self._wrap(raw, nid)
                self._set(cls, attr, wrapped, is_dict=False)
                continue
            fn = getattr(module, qual)
            self.originals[full] = fn
            wrapped = self._wrap(fn, nid)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped, is_dict=False)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is fn:
                                self._set(value, k, wrapped, is_dict=True)

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _set(self, target, key, value, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((target, key, target[key], True))
            target[key] = value
        else:
            self._patches.append((target, key, vars(target)[key], False))
            setattr(target, key, value)

    def _wrap(self, fn, nid: int):
        nids, parents, pass_ids = self.nids, self.parents, self.pass_ids
        starts, ends, stack = self.starts, self.ends, self._stack
        perf = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            pass_ids.append(tracer._pass_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf()
                stack.pop()
                tracer.raised[i] = type(exc).__name__
                raise
            ends[i] = perf()
            stack.pop()
            if nid == _QUOTIENT:
                tracer.quotients[i] = (int(args[0].rank), len(result.survivors))
            elif nid == _EMIT and (stack[-1] < 0 or nids[stack[-1]] != _EMIT):
                tracer.emitted[i] = len(result.encode("utf-8"))
            elif nid in _SUITE_IDS:
                tracer.suite_failed[i] = sum(1 for row in result if not row["passed"])
            return result

        return traced

    # -- passes -------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("a pass is already open")
        self._pass_id = pass_id
        self._pass_begin = i = len(self.starts)
        self.nids.append(ROOT)
        self.parents.append(-1)
        self.pass_ids.append(pass_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())

    def end_pass(self) -> None:
        i = self._stack.pop()
        self.ends[i] = self.clock()
        if i != self._pass_begin or len(self._stack) != 1:
            raise RuntimeError("span stack out of balance at the end of a pass")
        self._pass_ranges[self._pass_id] = (self._pass_begin, len(self.starts))
        self._pass_id = -1

    # -- aggregation --------------------------------------------------------

    def pass_summary(self, pass_id: int) -> dict:
        """Calls, self time and inclusive time per name over one pass."""
        lo, hi = self._pass_ranges[pass_id]
        # slicing an array copies it, so no buffer stays exported and the
        # arrays can keep growing
        nids = np.frombuffer(self.nids[lo:hi], dtype=np.int32)
        parents = np.frombuffer(self.parents[lo:hi], dtype=np.int64) - lo
        dur = (np.frombuffer(self.ends[lo:hi], dtype=np.float64)
               - np.frombuffer(self.starts[lo:hi], dtype=np.float64))
        covered = np.zeros(hi - lo)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered
        k = ROOT + 1
        return {
            "calls": np.bincount(nids, minlength=k)[:ROOT].tolist(),
            "self_s": np.bincount(nids, weights=self_time, minlength=k).tolist(),
            "wall_s": np.bincount(nids, weights=dur, minlength=k)[:ROOT].tolist(),
            "root_s": float(dur[0]),
            "spans": hi - lo,
            "quotients": [v for i, v in sorted(self.quotients.items()) if lo <= i < hi],
            "emitted_bytes": sum(v for i, v in self.emitted.items() if lo <= i < hi),
            "suite_failed": {
                SPAN_NAMES[self.nids[i]]: v for i, v in self.suite_failed.items() if lo <= i < hi
            },
            "raised": sorted(
                (SPAN_NAMES[self.nids[i]], name) for i, name in self.raised.items() if lo <= i < hi
            ),
        }

    def layer_metrics(self, summary: dict) -> dict[str, float]:
        """Per-layer metrics of one pass summary, named as in metric_names()."""
        out: dict[str, float] = {}
        calls, self_s, wall_s = summary["calls"], summary["self_s"], summary["wall_s"]
        failed = summary["suite_failed"]
        for i, name in enumerate(SPAN_NAMES):
            if i in _SUITE_IDS:
                out[f"{name}.wall_s"] = wall_s[i]
                out[f"{name}.failed"] = failed.get(name, 0)
            else:
                out[f"{name}.calls"] = calls[i]
                out[f"{name}.self_s"] = self_s[i]
        for layer in TARGETS:
            ids = [i for i, n in enumerate(SPAN_NAMES) if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self_s[i] for i in ids)
        raw = sum(r for r, _ in summary["quotients"])
        kept = sum(k for _, k in summary["quotients"])
        out["hilbert_module.quotient.kept_ratio"] = kept / raw if raw else 0.0
        out["serialization.emit_json.bytes"] = summary["emitted_bytes"]
        out["dilation.BudgetExceededError.raises"] = sum(
            1 for _, exc in summary["raised"] if exc == "BudgetExceededError"
        )
        return out

    def save(self, path) -> None:
        """Write every recorded span once, as flat arrays."""
        np.savez(
            path,
            names=np.array(SPAN_NAMES + ("pass",)),
            name_id=np.frombuffer(self.nids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
