"""Span tracing from outside the program.

The tracer replaces module functions and class methods of ``npvdeepc`` with
wrappers that record one span per call (name, parent span, start, end) and a
few counters.  Spans stay in memory until the run ends; self times are then
computed as each span's duration minus the time covered by its child spans.
Calls run in one thread, so spans nest strictly.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, parent span index or -1, start, end]
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ----- spans and counters --------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, self._stack[-1], self.clock(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for (nid, _, start, end), covered in zip(self.spans, child):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        """Write every span as gzipped CSV: name, parent index, start, end."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i, (nid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{parent},{start!r},{end!r}\n")

    # ----- installing wrappers -------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """A wrapper recording a span per call; ``after(result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, after=None, wrapper=None) -> None:
        """Replace a module function everywhere the package imported it by name."""
        orig = getattr(module, attr)
        new = wrapper if wrapper is not None else self.wrap(orig, name, after)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == package and getattr(mod, attr, None) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, new)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(orig, name, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _count_status(tracer: Tracer, prefix: str):
    def after(result):
        _, diag = result
        tracer.count(f"{prefix}.iterations", diag.iterations)
        tracer.count(f"{prefix}.status_{diag.status}")

    return after


def _sqp_wrapper(tracer: Tracer, solve_sqp):
    """solve_sqp with counted callbacks; distinct points are counted per solve."""
    after = _count_status(tracer, "optim.solve_sqp")

    @functools.wraps(solve_sqp)
    def wrapper(cost_fn, eq_fn, *args, **kwargs):
        seen = set()

        def cost(x):
            tracer.count("optim.solve_sqp.cost_evals")
            return cost_fn(x)

        def eq(x):
            tracer.count("optim.solve_sqp.eq_evals")
            seen.add(np.asarray(x, dtype=float).tobytes())
            idx = tracer.open("optim.solve_sqp.eq_fn")
            try:
                return eq_fn(x)
            finally:
                tracer.close(idx)

        idx = tracer.open("optim.solve_sqp")
        try:
            result = solve_sqp(cost, None if eq_fn is None else eq, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count("optim.solve_sqp.eq_evals_distinct", len(seen))
        after(result)
        return result

    return wrapper


def install_npvdeepc(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from npvdeepc import baseline, deepc, experiments, hypernet, npv, optim, plant

    def after_train(model):
        tracer.count("hypernet.train.epochs", model.history.stopped_epoch)

    tracer.patch_function(hypernet, "train", "hypernet.train", after_train)
    tracer.patch_function(plant, "collect_open_loop", "plant.collect_open_loop")
    tracer.patch_function(npv, "transform_hankel", "npv.transform_hankel")
    tracer.patch_function(baseline, "identify_arx", "baseline.identify_arx")
    tracer.patch_function(deepc, "build_projector", "deepc.build_projector")
    tracer.patch_function(baseline, "arx_rollout_affine", "baseline.arx_rollout_affine")
    tracer.patch_function(experiments, "run_tracking_loop", "experiments.run_tracking_loop")
    tracer.patch_function(optim, "solve_qp", "optim.solve_qp", _count_status(tracer, "optim.solve_qp"))
    tracer.patch_function(optim, "solve_sqp", "optim.solve_sqp",
                          wrapper=_sqp_wrapper(tracer, optim.solve_sqp))
    for attr in ("hyper_forward", "phi_hl", "jacobian_phi_hl_future_u_raw", "phi_curvature_future_u_raw"):
        tracer.patch_method(hypernet.HyperDnnModel, attr, f"hypernet.{attr}")
    tracer.patch_method(npv.NpvController, "solve_step", "npv.NpvController.solve_step")
    tracer.patch_method(deepc.DeepcController, "solve_step", "deepc.DeepcController.solve_step")
    tracer.patch_method(baseline.MpcController, "solve_step", "baseline.MpcController.solve_step")
    tracer.patch_method(plant.SurrogatePlant, "step", "plant.SurrogatePlant.step")


_MS = 1e3


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark; layers not exercised read 0."""
    summ = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def total_ms(name):
        return summ.get(name, {}).get("total_s", 0.0) * _MS

    def self_ms(name):
        return summ.get(name, {}).get("self_s", 0.0) * _MS

    epochs = counts.get("hypernet.train.epochs", 0)
    qp_its = counts.get("optim.solve_qp.iterations", 0)
    out = {
        "hypernet.train.epochs": (epochs, "count"),
        "hypernet.train.ms_per_epoch": (total_ms("hypernet.train") / epochs if epochs else 0.0, "ms"),
        "plant.collect_open_loop.ms": (total_ms("plant.collect_open_loop"), "ms"),
        "npv.transform_hankel.ms": (total_ms("npv.transform_hankel"), "ms"),
        "baseline.identify_arx.ms": (total_ms("baseline.identify_arx"), "ms"),
        "deepc.build_projector.ms": (total_ms("deepc.build_projector"), "ms"),
        "hypernet.hyper_forward.calls": (calls("hypernet.hyper_forward"), "count"),
    }
    for attr in ("phi_hl", "jacobian_phi_hl_future_u_raw", "phi_curvature_future_u_raw"):
        out[f"hypernet.{attr}.calls"] = (calls(f"hypernet.{attr}"), "count")
        out[f"hypernet.{attr}.ms"] = (total_ms(f"hypernet.{attr}"), "ms")
    out.update({
        "optim.solve_sqp.calls": (calls("optim.solve_sqp"), "count"),
        "optim.solve_sqp.iterations": (counts.get("optim.solve_sqp.iterations", 0), "count"),
        "optim.solve_sqp.self_ms": (self_ms("optim.solve_sqp"), "ms"),
        "optim.solve_sqp.cost_evals": (counts.get("optim.solve_sqp.cost_evals", 0), "count"),
        "optim.solve_sqp.eq_evals": (counts.get("optim.solve_sqp.eq_evals", 0), "count"),
        "optim.solve_sqp.eq_evals_distinct": (counts.get("optim.solve_sqp.eq_evals_distinct", 0), "count"),
        "optim.solve_sqp.eq_ms": (total_ms("optim.solve_sqp.eq_fn"), "ms"),
    })
    for status in ("optimal", "max_iter", "infeasible"):
        out[f"optim.solve_sqp.status_{status}"] = (counts.get(f"optim.solve_sqp.status_{status}", 0), "count")
    out.update({
        "optim.solve_qp.calls": (calls("optim.solve_qp"), "count"),
        "optim.solve_qp.iterations": (qp_its, "count"),
        "optim.solve_qp.self_ms": (self_ms("optim.solve_qp"), "ms"),
        "optim.solve_qp.ms_per_iteration": (total_ms("optim.solve_qp") / qp_its if qp_its else 0.0, "ms"),
    })
    for status in ("optimal", "max_iter", "infeasible"):
        out[f"optim.solve_qp.status_{status}"] = (counts.get(f"optim.solve_qp.status_{status}", 0), "count")
    for name in ("npv.NpvController.solve_step", "deepc.DeepcController.solve_step",
                 "baseline.MpcController.solve_step"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out.update({
        "baseline.arx_rollout_affine.ms": (total_ms("baseline.arx_rollout_affine"), "ms"),
        "plant.SurrogatePlant.step.calls": (calls("plant.SurrogatePlant.step"), "count"),
        "plant.SurrogatePlant.step.ms": (total_ms("plant.SurrogatePlant.step"), "ms"),
        "experiments.run_tracking_loop.self_ms": (self_ms("experiments.run_tracking_loop"), "ms"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return out
