"""The benchmark's tracer wraps program functions by name, from outside."""

import importlib
import importlib.util
import inspect
from types import SimpleNamespace

from conftest import REPO_ROOT


def test_bench_traced_functions_resolve(monkeypatch):
    # bench/run.py --trace 1 puts a span around each (module, function) of
    # spans.TARGETS; one that is renamed or deleted fails there with an
    # AttributeError, so every pair must name a function of the program
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    spans = importlib.import_module("spans")
    for module, function, span, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), function, None)), span


def test_bench_reads_the_spec_from_propagates_first_argument():
    # spans._external tells an external slice by args[0].mode
    from paratide import propagator

    first = next(iter(inspect.signature(propagator.propagate).parameters.values()))
    assert (first.name, first.annotation) == ("spec", "PropagatorSpec")


def test_bench_workloads_build_their_settings(monkeypatch, tmp_path):
    # bench/run.py builds its specs and driver settings from the config's
    # attributes and the constructors' keywords: each must still exist.
    # No spin-up and no run; import_program is left out, since it rewrites
    # PYTHONPATH for the children it expects to start.
    from paratide import config, harness, metrics, parareal, propagator

    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    loader = importlib.util.spec_from_file_location("bench_run", REPO_ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run)
    pt = SimpleNamespace(config=config, harness=harness, metrics=metrics,
                         parareal=parareal, propagator=propagator)
    for name, cls in run.WORKLOADS.items():
        wl = cls(pt, REPO_ROOT / cls.shipped_config, tmp_path / name)
        wl.config = config.parse_config(wl.config_path)
        assert wl.spec(wl.config.coarse_spd).restart_policy == "cold", name
        if isinstance(wl, run.ExternalExp1):
            cfgs = [wl.parareal_config(), wl.parareal_config(mode="external", command=wl.command())]
        else:
            cfgs = [wl.parareal_config(nf) for nf in wl.config.fine_spds]
        for cfg in cfgs:
            assert cfg.layout == wl.config.layout and cfg.coarse.spd == wl.config.coarse_spd, name
        assert wl.cache_dir() == tmp_path / name / "runs" / "cache" / wl.config.hash(), name
    # the calls bench/run.py makes into the serial chain and the driver: a
    # renamed or dropped keyword fails to bind here rather than mid-benchmark
    inspect.signature(propagator.restarted_serial_run).bind(
        "spec", "u0", "layout", "params", run_dir=tmp_path)
    inspect.signature(parareal.run_parareal).bind("u0", "cfg", "params", reference=[])
    inspect.signature(parareal.run_parareal).bind("u0", "cfg", "params", run_dir=tmp_path)


TRACED = """
[config]
slice_length = 600
n_slices = 3
coarse_spd = 144
fine_spd = 288
max_parallel_fine = 1
spin_up_days = 0.25
spin_up_spd = 288

[model]
nx = 8
ny = 8
"""


def test_bench_tracer_reads_every_span_of_a_run(monkeypatch, tmp_path):
    # the span attributes read arguments by position and results by name:
    # a reordered parameter or a renamed field would crash a traced
    # benchmark, so every span fires here once through the program
    import sys

    from paratide import PropagatorSpec, StepHistory, config, harness, parareal, propagator

    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    monkeypatch.setenv("PARAREAL_RUNS_DIR", str(tmp_path / "runs"))
    spans = importlib.import_module("spans")
    (tmp_path / "traced.conf").write_text(TRACED)
    exp = config.parse_config(tmp_path / "traced.conf")
    tracer, original = spans.Tracer(), propagator.propagate
    tracer.install()
    try:
        harness.spin_up(exp)                          # integrated and written
        u0 = harness.spin_up(exp)                     # read back
        parareal.run_parareal(u0, exp.parareal_config(288), exp.params, run_dir=tmp_path / "run")
        propagator.restarted_serial_run(PropagatorSpec(288), u0, exp.layout, exp.params)
        external = PropagatorSpec(288, mode="external",
                                  command=(sys.executable, "-m", "paratide", "single-shot",
                                           "--config", str(tmp_path / "traced.conf")))
        propagator.propagate(external, StepHistory(u0), 600, exp.params,
                             workdir=tmp_path / "external")
    finally:
        tracer.uninstall()
    assert propagator.propagate is original
    assert {name for _, _, name, _ in spans.TARGETS} == {s.name for s in tracer.spans}
    metrics = tracer.layer_metrics()
    assert all(value > 0 for value in metrics.values()), metrics
