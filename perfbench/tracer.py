"""Span tracing of dualgeo from outside the package.

`install` wraps the public functions and methods listed in SPANS.  Each call
records one span (name, parent, start, end) in flat in-memory arrays; nothing
is written until `Recorder.save`.  Functions that modules bind by
``from ... import`` are replaced at every binding, including the suite table
`theorems.SUITES`, so calls made through those names are traced too.

A span's self time is its duration minus the part its direct children cover.
Calls are nested and single-threaded, so the children of a span do not
overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

from layers import EXIT_REASONS, LAYERS, ROOT_SPAN, SPANS


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.exits: Counter = Counter()
        self.samples: list[int] = []
        self.rk4_steps = 0
        self.pairs = 0
        self.pair_bytes = 0

    def span(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end, stack, clock = self.end, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # --- evidence counters at the geodesics boundary ---------------------------

    def _trajectory(self, traj) -> None:
        self.exits[traj.exit_reason] += 1
        self.samples.append(len(traj.tau))
        self.rk4_steps += len(traj.tau) - 1   # accepted steps

    def _count_pairs(self, fn):
        """Count query-segment pairs of the curve comparison's distance kernel
        and the bytes of the dense (Q, M) and (Q, M, n) temporaries it makes:
        three of n doubles and five of one double per pair."""
        def counted(queries, poly):
            q = len(np.atleast_2d(queries))
            n = poly.shape[1]
            if len(poly) < 2:
                self.pairs += q
                self.pair_bytes += 8 * n * q
            else:
                pairs = q * (len(poly) - 1)
                self.pairs += pairs
                self.pair_bytes += 8 * (3 * n + 5) * pairs
            return fn(queries, poly)
        return counted

    # --- results ------------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def summary(self) -> dict:
        """Per-layer metrics of every span recorded so far."""
        name_id, parent, start, end = self.arrays()
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_ns = dur - covered
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_by_name = np.bincount(name_id, weights=self_ns, minlength=k)
        out = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for span in SPANS:
            i = self.names.index(span) if span in self.names else None
            n_calls = int(calls[i]) if i is not None else 0
            self_s = float(self_by_name[i]) / 1e9 if i is not None else 0.0
            out[f"{span}.calls"] = n_calls
            out[f"{span}.self_s"] = self_s
            layer_s[span.split(".")[0]] += self_s
        for layer, value in layer_s.items():
            out[f"layer.{layer}.self_s"] = value
        integrations = sum(self.exits.values())
        out["geodesics.rk4_steps"] = self.rk4_steps
        for reason in EXIT_REASONS:
            out[f"geodesics.exit.{reason}"] = self.exits[reason]
        out["geodesics.completed_ratio"] = (
            self.exits["completed"] / integrations if integrations else 0.0)
        out["geodesics.min_samples"] = min(self.samples) if self.samples else 0
        out["geodesics.compare.pairs"] = self.pairs
        out["geodesics.compare.bytes_computed"] = self.pair_bytes
        return out

    def root_seconds(self) -> float:
        """Total duration of the root spans (the traced command's wall time)."""
        name_id, parent, start, end = self.arrays()
        root = self.names.index(ROOT_SPAN)
        mask = name_id == root
        return float(np.sum(end[mask] - start[mask])) / 1e9

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start_ns=start, end_ns=end)


def install(package: str = "dualgeo") -> Recorder:
    """Wrap every target in SPANS across the loaded modules of `package`."""
    recorder = Recorder()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    replace = {}
    for span, targets in SPANS.items():
        on_result = recorder._trajectory if span == "geodesics.integrate" else None
        for module_name, attr in targets:
            module = sys.modules[f"{package}.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method,
                        recorder.span(span, owner.__dict__[method], on_result))
            else:
                original = getattr(module, attr)
                replace[id(original)] = (original, recorder.span(span, original, on_result))
    geodesics = sys.modules[f"{package}.geodesics"]
    kernel = geodesics._polyline_distances
    replace[id(kernel)] = (kernel, recorder._count_pairs(kernel))
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    hit = replace.get(id(v))
                    if hit is not None and hit[0] is v:
                        value[k] = hit[1]
    return recorder
