"""Spans around calls into qdarwin's modules, recorded from outside the package.

The tracer replaces each public function of a traced module with a wrapper,
both at its own module attribute and in every qdarwin module that imported it
by name (``objectivity`` holds its own ``partial_trace`` reference, ``cli``
its own ``analyze``).  Nothing under ``src/`` changes.

Spans live in flat typed arrays (name id, parent span, input id, start, end)
until the run ends; :meth:`Tracer.write` saves them and :func:`aggregate`
turns them into per-function calls, total time and self time.  Self time is a
span's duration minus the durations of its direct children, which is the time
they cover because calls in one thread nest.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("core", "measures", "optimize", "objectivity", "zoo", "cli")

# Called once per objective evaluation inside the optimizer (hundreds of
# thousands of times for one d = 4 fragment); a span each would dominate the
# traced run, so the optimizer's work is counted through the objective
# wrappers instead.
UNTRACED = frozenset({"optimize.qubit_basis", "optimize.unitary_from_params",
                      "measures.classical_mutual_information"})


def _input_bytes(rho, *args, **kwargs) -> int:
    """Bytes of the complex128 matrix handed to ``partial_trace`` (16 d^2)."""
    return 16 * rho.dim * rho.dim


VOLUME = {"core.partial_trace": _input_bytes}


class Tracer:
    """Installs span-recording wrappers into the qdarwin package and restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.volume: Counter = Counter()
        self.evals: Counter = Counter()
        self.input_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        volume = VOLUME.get(name)
        clock = time.perf_counter
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.input.append(self.input_id)
            self.nested.append(1 if active[nid] else 0)
            if volume is not None:
                self.volume[name] += volume(*args, **kwargs)
            stack.append(idx)
            active[nid] += 1
            self.end.append(0.0)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                active[nid] -= 1
                stack.pop()

        return traced

    def _count_evals(self, fn):
        """Wrap ``maximize_over_bases`` so its objectives count their evaluations."""
        signature = inspect.signature(fn)
        evals = self.evals

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            dim = bound.arguments["dim"]
            objective = bound.arguments["objective"]
            eval_key, row_key = f"optimize.evals.d{dim}", f"optimize.batch_rows.d{dim}"

            def counted_objective(basis):
                evals[eval_key] += 1
                return objective(basis)

            bound.arguments["objective"] = counted_objective
            batch = bound.arguments.get("batch_objective")
            if batch is not None:
                def counted_batch(bases):
                    evals[row_key] += len(bases)
                    return batch(bases)

                bound.arguments["batch_objective"] = counted_batch
            return fn(*bound.args, **bound.kwargs)

        return counted

    @staticmethod
    def _targets():
        """(span name, module, attribute) for every function the tracer wraps."""
        for layer in LAYERS:
            module = sys.modules[f"qdarwin.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                yield name, module, attr

    @staticmethod
    def traceable() -> list[str]:
        return [name for name, _, _ in Tracer._targets()]

    def install(self) -> None:
        """Wrap every public function of the traced layers, wherever it is bound."""
        replacements: dict[int, object] = {}
        for name, module, attr in self._targets():
            fn = getattr(module, attr)
            wrapped = self._count_evals(fn) if name == "optimize.maximize_over_bases" else fn
            replacements[id(fn)] = self._wrap(name, wrapped)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qdarwin" or modname.startswith("qdarwin.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> tuple[int, Counter, Counter]:
        """Snapshot to pass to :func:`aggregate` to count only what follows."""
        return len(self.start), Counter(self.volume), Counter(self.evals)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "input": np.frombuffer(self.input, dtype=np.int32).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        """Save every span, with the name table, as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def aggregate(tracer: Tracer, since: tuple[int, Counter, Counter]) -> dict[str, float]:
    """Per-function ``calls``, ``total_s`` and ``self_s`` recorded after ``since``.

    ``total_s`` skips spans nested inside a span of the same function, so a
    recursive call is not counted twice.  Also returns each layer's summed
    self time as ``<layer>.self_s``, the time inside the layer counted from
    its entries from other layers as ``<layer>.total_s``, and the volumes.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    covered = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(covered, a["parent"][has_parent], dur[has_parent])
    self_time = dur - covered
    first_span, volume0, evals0 = since
    keep = np.arange(dur.size) >= first_span
    out: dict[str, float] = {}
    layer_self: Counter = Counter()
    for nid, name in enumerate(tracer.names):
        mask = keep & (a["name"] == nid)
        calls = int(mask.sum())
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = float(dur[mask & (a["nested"] == 0)].sum())
        out[f"{name}.self_s"] = float(self_time[mask].sum())
        layer_self[name.split(".")[0]] += out[f"{name}.self_s"]
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names] or [0])[a["name"]]
    outermost = ~has_parent | (layer_of[np.maximum(a["parent"], 0)] != layer_of)
    for index, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(layer_self[layer])
        out[f"{layer}.total_s"] = float(dur[keep & outermost & (layer_of == index)].sum())
    for name, value in (tracer.volume - volume0).items():
        out[f"{name}.bytes_in"] = float(value)
    out.update(tracer.evals - evals0)
    out["trace.spans"] = int(keep.sum())
    return out
