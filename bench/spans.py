"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every module attribute
of ``paratide`` that holds it, because a ``from .solver import
integrate_history`` binds the function in the importing module too and the
program looks it up there.  ``uninstall`` puts the originals back.  Spans
stay in memory until ``write``; self time is a span's duration minus the
durations of its direct children on the same thread (the fine phase of an
external run starts its slices on worker threads, so those have no parent).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    stage: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _lanes(args, kwargs, result):
    cfg, k = args[2], args[4]
    return {"lanes": cfg.layout.n_slices - k + 1}


def _history_steps(args, kwargs, result):
    h, t_end, dt = args[0], args[1], args[2]
    return {"steps": (int(t_end) - h.current.time) // int(dt)}


def _batch_lane_steps(args, kwargs, result):
    states, duration, dt = args[0], args[1], args[2]
    return {"lane_steps": len(states) * (int(duration) // int(dt))}


def _written(args, kwargs, result):
    return {"bytes": Path(args[2]).stat().st_size}


def _crc_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _external(args, kwargs, result):
    return {"external": args[0].mode == "external"}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations_run}


# (module, function, span name, attributes taken from the call)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("paratide.parareal", "run_parareal", "parareal.run", _iterations),
    ("paratide.parareal", "coarse_init_sweep", "parareal.init_sweep", None),
    ("paratide.parareal", "fine_parallel_phase", "parareal.fine_phase", _lanes),
    ("paratide.parareal", "correction_sweep", "parareal.correction_sweep", None),
    ("paratide.solver", "integrate_history", "solver.integrate_history", _history_steps),
    ("paratide.solver", "integrate_batch", "solver.integrate_batch", _batch_lane_steps),
    ("paratide.state", "state_diff", "state.diff", None),
    ("paratide.state", "state_add", "state.add", None),
    ("paratide.checkpoint", "write_checkpoint", "checkpoint.write", _written),
    ("paratide.checkpoint", "read_checkpoint", "checkpoint.read", None),
    ("paratide.checkpoint", "crc64", "checkpoint.crc64", _crc_bytes),
    ("paratide.propagator", "run_external", "propagator.run_external", None),
    ("paratide.propagator", "propagate", "propagator.propagate", _external),
    ("paratide.propagator", "restarted_serial_run", "propagator.restarted_serial_run", None),
    ("paratide.harness", "spin_up", "harness.spin_up", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stage = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), stack[-1] if stack else None,
                        threading.get_ident(), name, self.stage, time.perf_counter())
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "paratide" or n.startswith("paratide."))]
        for module_name, fn_name, span_name, attrs in TARGETS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(span_name, original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_seconds(self) -> dict[int, float]:
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.seconds
        return {s.id: s.seconds - children[s.id] for s in self.spans}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        own = self.self_seconds()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += own[s.id]
        return dict(sorted(out.items()))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "thread": s.thread, "name": s.name,
                    "stage": s.stage, "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")

    # -- per-layer figures --------------------------------------------------

    def _of(self, name: str, **match) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def layer_metrics(self) -> dict[str, float]:
        def total(name, **match):
            return sum((s.seconds for s in self._of(name, **match)), 0.0)

        def count(name, **match):
            return len(self._of(name, **match))

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in self._of(name))

        def per(value, n, scale):
            return value / n * scale if n else 0.0

        serial_steps = attr_sum("solver.integrate_history", "steps")
        lane_steps = attr_sum("solver.integrate_batch", "lane_steps")
        algebra = self._of("state.diff") + self._of("state.add")
        return {
            "parareal.init_sweep_s": total("parareal.init_sweep"),
            "parareal.fine_phase_s": total("parareal.fine_phase"),
            "parareal.correction_sweep_s": total("parareal.correction_sweep"),
            "parareal.iterations": attr_sum("parareal.run", "iterations"),
            "parareal.fine_lanes": attr_sum("parareal.fine_phase", "lanes"),
            "solver.serial_steps": serial_steps,
            "solver.serial_step_us": per(total("solver.integrate_history"), serial_steps, 1e6),
            "solver.lane_steps": lane_steps,
            "solver.lane_step_us": per(total("solver.integrate_batch"), lane_steps, 1e6),
            "state.algebra_calls": len(algebra),
            "state.algebra_us": per(sum(s.seconds for s in algebra), len(algebra), 1e6),
            "checkpoint.writes": count("checkpoint.write"),
            "checkpoint.reads": count("checkpoint.read"),
            "checkpoint.bytes_written": attr_sum("checkpoint.write", "bytes"),
            "checkpoint.write_ms": per(total("checkpoint.write"), count("checkpoint.write"), 1e3),
            "checkpoint.read_ms": per(total("checkpoint.read"), count("checkpoint.read"), 1e3),
            "checkpoint.crc_mb_s": per(attr_sum("checkpoint.crc64", "bytes"), total("checkpoint.crc64"), 1e-6),
            "propagator.spawns": count("propagator.run_external"),
            "propagator.spawn_ms": per(total("propagator.run_external"),
                                       count("propagator.run_external"), 1e3),
            "propagator.external_slice_ms": per(total("propagator.propagate", external=True),
                                                count("propagator.propagate", external=True), 1e3),
            "harness.spin_up_s": total("harness.spin_up"),
        }
