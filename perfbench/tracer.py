"""Spans and counts recorded from outside the dyngof package.

`Tracer.installed()` replaces each traced public function with a wrapper
in every dyngof module that binds it (for example `dyngof.gof.tv_distance`
as well as `dyngof.sampling.tv_distance`), and restores the originals on
exit. Each call records a span (name, start, end, parent span, operation
id) in flat arrays; counts are taken from the wrapped calls' arguments and
return values. Self time is derived afterwards from the span tree.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> span name. IncrementalReplay.advance and replay
# share one name: they are the two forms of the degree replay.
TRACED = {
    ("models", "sample_trajectory"): "models.sample_trajectory",
    ("models", "step_distribution"): "models.step_distribution",
    ("models", "replay"): "models.replay",
    ("models", "IncrementalReplay.advance"): "models.replay",
    ("models", "write_trajectory"): "models.write_trajectory",
    ("models", "read_trajectory"): "models.read_trajectory",
    ("sampling", "sample_probe_points"): "sampling.sample_probe_points",
    ("sampling", "empirical_measure"): "sampling.empirical_measure",
    ("sampling", "tv_distance"): "sampling.tv_distance",
    ("sampling", "tv_dense"): "sampling.tv_dense",
    ("gof", "test_statistic"): "gof.test_statistic",
    ("gof", "statistic_samples"): "gof.statistic_samples",
    ("gof", "sampling_radius_estimate"): "gof.sampling_radius_estimate",
    ("gof", "dn_estimate"): "gof.dn_estimate",
    ("gof", "test_dynamic_graph"): "gof.test_dynamic_graph",
    ("harness", "calibrate_D"): "harness.calibrate_D",
    ("harness", "run_experiment"): "harness.run_experiment",
    ("rng", "stream"): "rng",
    ("rng", "derive_seed"): "rng",
}

# Modules whose bindings are patched, where loaded; cli and oracle are not
# measured but still bind some traced names.
BINDING_MODULES = ("", ".models", ".sampling", ".gof", ".harness", ".rng", ".cli", ".oracle")

OP = "op"


def _count_empirical_measure(c, args, result):
    traj, width = args[0], args[2]
    c["sampling.window_choices"] += width * traj.m
    c["sampling.kept_choices"] += result.denom
    c["sampling.support_total"] += len(result.counts)


def _count_test_statistic(c, args, result):
    c["gof.probes"] += len(result.per_probe_tv)


def _count_dn_estimate(c, args, result):
    n, replications = args[2], args[3]
    c["gof.dn_steps"] += (n - 1) * replications


def _count_sample_trajectory(c, args, result):
    c["models.arrivals_sampled"] += result.n - 1


def _count_traj_file(c, args, result):
    c["models.traj_bytes"] += os.path.getsize(args[-1])


# Counts read from each call's positional arguments and return value, as
# the package's own callers pass them.
COUNTERS = {
    "sampling.empirical_measure": _count_empirical_measure,
    "gof.test_statistic": _count_test_statistic,
    "gof.dn_estimate": _count_dn_estimate,
    "models.sample_trajectory": _count_sample_trajectory,
    "models.write_trajectory": _count_traj_file,
    "models.read_trajectory": _count_traj_file,
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._name_ids = {OP: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.current_op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.current_op = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            idx = opened(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package: str = "dyngof"):
        """Patch every binding of the traced functions; restore on exit."""
        loaded = (sys.modules.get(package + suffix) for suffix in BINDING_MODULES)
        modules = [mod for mod in loaded if mod is not None]
        saved = []
        for (mod_name, attr), span_name in TRACED.items():
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, span_name))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its child spans.

    Overlapping children are merged before their cover is subtracted, and
    a child is clipped to its parent's interval.
    """
    start = np.asarray(start, dtype=np.float64).tolist()
    end = np.asarray(end, dtype=np.float64).tolist()
    out = np.subtract(end, start)
    children = defaultdict(list)
    for idx, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append((max(start[idx], start[p]), min(end[idx], end[p])))
    for p, kids in children.items():
        covered = 0.0
        run_lo = run_hi = None
        for a, b in sorted(kids):
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer, op_scale=None) -> tuple[dict, dict, dict]:
    """Per span name: call count, inclusive seconds and self seconds.

    With op_scale, the times of spans in operation i are multiplied by
    op_scale[i]. Operation root spans are named "op".
    """
    spans = tracer.spans()
    weight = np.ones(spans["op"].size) if op_scale is None else np.asarray(op_scale)[spans["op"]]
    own = self_times(spans["start"], spans["end"], spans["parent"]) * weight
    dur = (spans["end"] - spans["start"]) * weight
    calls, incl, self_s = {}, {}, {}
    for name_id, name in enumerate(tracer.names):
        sel = spans["name"] == name_id
        calls[name] = int(np.count_nonzero(sel))
        incl[name] = float(dur[sel].sum())
        self_s[name] = float(own[sel].sum())
    return calls, incl, self_s
