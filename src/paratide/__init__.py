"""Parallel-in-time simulation engine with a shallow-water + tracer testbed.

The public names below are resolved on first access (PEP 562), so importing
the package, or one of its modules, loads only the modules actually used:
``python -m paratide single-shot`` never imports the Parareal driver, the
harness or the metrics.
"""

import importlib

_EXPORTS = {
    "checkpoint": ("Checkpoint", "read_checkpoint", "write_checkpoint"),
    "config": ("ExperimentConfig", "PararealConfig", "parse_config"),
    "metrics": (
        "max_profitable_iterations",
        "measure_runtime_ratio",
        "rel_l2_norm",
        "rel_max_norm",
        "speedup_bound",
        "speedup_estimate",
    ),
    "parareal": ("IterationRecord", "PararealResult", "run_parareal"),
    "propagator": ("PropagatorSpec", "SliceLayout", "propagate", "run_external"),
    "solver": (
        "ModelParams",
        "cfl_max_dt",
        "integrate",
        "integrate_batch",
        "integrate_history",
    ),
    "state": (
        "Field",
        "Grid",
        "ModelState",
        "StepHistory",
        "state_add",
        "state_diff",
        "validate_state",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in this namespace: every access reads the defining module,
    # so a name rebound there is seen here too.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
