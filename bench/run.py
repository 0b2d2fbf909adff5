"""paratide benchmark: two workloads, their correctness checks, and metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload exp2-tolerance --seed 1234 --seconds 25 --trace 0

The program is imported from ./src and sees only a copy of the shipped
config with ``seed`` replaced by --seed.  Run roots go under
./.bench_scratch/<workload>/.  Each run sets up (spin-up from an empty run
root, timed), then repeats whole rounds -- serial fine baselines on both
sides of the workload's operation -- until --seconds have passed and at
least the workload's min_rounds are done, then checks the last round's
outputs with the code in checks.py.  The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics (means over every sample
of the run), with --trace 1 the per-layer metrics of one traced set-up plus
one traced round (see spans.py) and the tracing overhead.  See README.md
for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"
SHIPPED_SEED = 1234
TOLERANCE = 1e-6


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def seeded_config(shipped: Path, seed: int, out: Path) -> Path:
    """Copy of a shipped config with its seed line replaced."""
    text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", shipped.read_text())
    if n != 1:
        raise SystemExit(f"{shipped}: expected one seed line, found {n}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out


def read_blobs(paths: list[Path]) -> list[bytes]:
    return [p.read_bytes() for p in paths]


def datas(iterates) -> list[list]:
    return [[s.data for s in states] for states in iterates]


class Workload:
    """One workload: a set-up, a serial fine baseline and a timed operation."""

    shipped_config = ""
    # Serial baselines per untraced round, half before the operation and half
    # after; each is one sample of serial_fine_wall_s.
    serial_repeats = 1
    ops_per_round = 1
    # Untraced rounds per run, at the least.  This machine's speed swings in
    # stretches of seconds to tens of seconds, so a run measures for as long
    # as the protocol's time allows, and one stretch does not decide it.
    min_rounds = 1

    def __init__(self, pt, config_path: Path, scratch: Path):
        self.pt = pt
        self.config_path = config_path
        self.runs_root = scratch / "runs"        # PARAREAL_RUNS_DIR
        self.round_dir = scratch / "round"

    def set_up(self) -> None:
        self.config = self.pt.config.parse_config(self.config_path)
        self.u0 = self.pt.harness.spin_up(self.config)

    def spec(self, spd: int, **kw):
        return self.pt.propagator.PropagatorSpec(spd, restart_policy=self.config.restart_policy, **kw)

    def serial_run(self, spd: int, run_dir: Path | None = None, **kw):
        c = self.config
        return self.pt.propagator.restarted_serial_run(
            self.spec(spd, **kw), self.u0, c.layout, c.params, run_dir=run_dir)

    def prepare_round(self) -> None:
        shutil.rmtree(self.round_dir, ignore_errors=True)

    def cache_dir(self) -> Path:
        return self.runs_root / "cache" / self.config.hash()

    def check_common(self) -> list[str]:
        """CRC check value; the cached spin-up file parses and holds u0."""
        duration = int(round(self.config.spin_up_days * 86400))
        blob = (self.cache_dir() / f"init_{duration}.prcp").read_bytes()
        failures = checks.crc_check_value()
        try:
            (spun,) = checks.parse_checkpoints([blob])
            if not checks.same_bits(spun.fields, self.u0.data):
                failures.append("cached spin-up state differs from the state the run used")
        except checks.ParseFailure as err:
            failures.append(f"spin-up cache: {err}")
        return failures + checks.self_test_parser(blob)

    def report(self) -> list[str]:
        return []


class Exp2Tolerance(Workload):
    """exp2 layout through run_parareal, stopping once U, T and S are within
    1e-6 of the benchmark's own serial fine run."""

    shipped_config = "configs/exp2.conf"
    # Each baseline is ~1.5 s of in-process stepping whose speed swings with
    # the machine's from one sample to the next: twelve per run, spread over
    # four rounds.
    serial_repeats = 3
    ops_per_round = 3
    min_rounds = 4

    def serial(self) -> None:
        self.serial_states = {nf: self.serial_run(nf) for nf in self.config.fine_spds}

    def parareal_config(self, nf: int):
        c = self.config
        return self.pt.parareal.PararealConfig(
            layout=c.layout, coarse=self.spec(c.coarse_spd), fine=self.spec(nf),
            epsilon=TOLERANCE, on_blow_up=c.on_blow_up,
            max_parallel_fine=c.max_parallel_fine, monitored_fields=c.monitored_fields,
        )

    def run(self) -> None:
        self.results = {
            nf: self.pt.parareal.run_parareal(self.u0, self.parareal_config(nf), self.config.params,
                                              reference=self.serial_states[nf])
            for nf in self.config.fine_spds
        }

    def check(self) -> list[str]:
        c = self.config
        fields = tuple(f.name for f in c.monitored_fields)
        failures = self.check_common()
        for nf, result in self.results.items():
            label = f"nf{nf}"
            serial = [s.data for s in self.serial_states[nf]]
            iterates = datas(result.iterates)
            if not result.stopped_at_epsilon:
                failures.append(f"{label}: the run did not stop at epsilon")
            failures += checks.exactness(iterates, serial, label)
            failures += checks.tolerance_stop(iterates, serial[-1], fields, TOLERANCE, label)
            steps = c.layout.total_seconds * nf // 86400
            failures += checks.tracer_means_conserved(self.u0.data, iterates[-1][-1], steps, label)
            failures += checks.self_test_exactness(iterates, serial)
            failures += checks.self_test_tolerance(iterates, serial[-1], fields, TOLERANCE)
        return failures

    def report(self) -> list[str]:
        m = self.pt.metrics
        c = self.config
        return [
            f"  nf{nf}: stopped at k={r.iterations_run}, speedup_estimate(k, N_t, nf/{c.coarse_spd}) = "
            f"{m.speedup_estimate(r.iterations_run, c.layout.n_slices, nf / c.coarse_spd):.4f}"
            for nf, r in self.results.items()
        ]


class ExternalExp1(Workload):
    """exp1 layout at nf 144 with coarse and fine both run as child
    processes through checkpoint files."""

    shipped_config = "configs/exp1.conf"
    fine_spd = 144
    max_iterations = 2
    # One operation of ~18 s runs its children on both vCPUs and so averages
    # their speeds; its baseline (~5 s) spawns one child at a time and
    # swings more, so it runs twice on each side of the operation.
    serial_repeats = 4

    def command(self) -> tuple[str, ...]:
        # The child starts in its work directory: the interpreter and the
        # config must be absolute paths.
        return (sys.executable, "-m", "paratide", "single-shot",
                "--config", str(self.config_path.resolve()))

    def parareal_config(self, **kw):
        c = self.config
        return self.pt.parareal.PararealConfig(
            layout=c.layout, coarse=self.spec(c.coarse_spd, **kw), fine=self.spec(self.fine_spd, **kw),
            max_iterations=self.max_iterations, epsilon=0.0, on_blow_up=c.on_blow_up,
            max_parallel_fine=nproc(), monitored_fields=c.monitored_fields,
        )

    def serial(self) -> None:
        self.serial_states = self.serial_run(self.fine_spd, self.round_dir / "serial",
                                             mode="external", command=self.command())

    def run(self) -> None:
        self.result = self.pt.parareal.run_parareal(
            self.u0, self.parareal_config(mode="external", command=self.command()),
            self.config.params, run_dir=self.round_dir / "parareal",
        )

    def check(self) -> list[str]:
        c = self.config
        n_slices = c.layout.n_slices
        failures = self.check_common()
        iterates = datas(self.result.iterates)
        serial = [s.data for s in self.serial_states]
        internal = self.pt.parareal.run_parareal(self.u0, self.parareal_config(), c.params)
        failures += checks.identical_runs(iterates, datas(internal.iterates),
                                          "external vs in-process run_parareal")
        failures += checks.identical_runs([serial], [[s.data for s in self.serial_run(self.fine_spd)]],
                                          "external vs in-process serial fine run")
        failures += checks.exactness(iterates, serial, "external")
        paths = [self.round_dir / "parareal" / f"k{k}" / f"slice{n}" / "iterate.prcp"
                 for k in range(len(iterates)) for n in range(n_slices + 1)]
        outs = [self.round_dir / "serial" / f"slice{n}" / "out.prcp" for n in range(n_slices)]
        blobs = read_blobs(paths)
        try:
            parsed = checks.parse_checkpoints(blobs + read_blobs(outs))
            from_files = [[p.fields for p in parsed[k * (n_slices + 1):(k + 1) * (n_slices + 1)]]
                          for k in range(len(iterates))]
            failures += checks.identical_runs(from_files, iterates, "iterate files vs run")
            failures += checks.identical_runs([[p.fields for p in parsed[len(paths):]]], [serial[1:]],
                                              "child output files vs serial fine run")
        except checks.ParseFailure as err:
            failures.append(f"external: {err}")
        failures += checks.self_test_identical(iterates)
        failures += checks.self_test_exactness(iterates, serial)
        failures += checks.self_test_parser(blobs[-1])
        return failures


WORKLOADS = {
    "exp2-tolerance": Exp2Tolerance,
    "external-exp1": ExternalExp1,
}

END_TO_END_UNITS = {"setup_s": "s", "run_wall_s": "s", "serial_fine_wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_mb_s", "MB/s"), ("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("speedup_measured") else "count"


def import_program():
    """paratide from this checkout's src/, never from an installed copy."""
    if not (SRC / "paratide" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'paratide'} is missing")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import paratide
    from paratide import config, harness, metrics, parareal, propagator

    if Path(paratide.__file__).resolve().parent != (SRC / "paratide").resolve():
        raise SystemExit(f"paratide imported from {paratide.__file__}, not from {SRC}")
    # Modules, not functions: calls look the function up at call time, so
    # they pass through the wrappers a Tracer installs.
    return SimpleNamespace(config=config, harness=harness, metrics=metrics,
                           parareal=parareal, propagator=propagator)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=SHIPPED_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    pt = import_program()
    cls = WORKLOADS[args.workload]
    scratch = SCRATCH / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    config_path = seeded_config(ROOT / cls.shipped_config, args.seed,
                                scratch / Path(cls.shipped_config).name)
    wl = cls(pt, config_path, scratch)
    tracer = Tracer() if args.trace else None

    os.environ["PARAREAL_RUNS_DIR"] = str(wl.runs_root)
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    wl.set_up()
    setup_wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()

    def one_round(traced: bool) -> float | None:
        """The operation with serial baselines around it; returns the
        operation's wall, or None when it raised."""
        nonlocal attempted, failed
        wl.prepare_round()
        if traced:
            tracer.install()

        def serial(times: int) -> None:
            if traced:
                tracer.stage = "serial"
            for _ in range(times):
                t0 = time.perf_counter()
                wl.serial()
                if not traced:
                    serial_walls.append(time.perf_counter() - t0)

        repeats = 1 if traced else cls.serial_repeats
        try:
            serial((repeats + 1) // 2)
            if traced:
                tracer.stage = "run"
            attempted += cls.ops_per_round
            t0 = time.perf_counter()
            wl.run()
            wall = time.perf_counter() - t0
            serial(repeats // 2)
            return wall
        except Exception:
            traceback.print_exc()
            failed += cls.ops_per_round
            return None
        finally:
            if traced:
                tracer.uninstall()

    serial_walls, run_walls = [], []
    attempted = failed = 0
    start = time.perf_counter()
    # A traced run needs one untraced round: the base of the overhead.
    min_rounds = 1 if tracer else cls.min_rounds
    while len(run_walls) < min_rounds or time.perf_counter() - start < args.seconds:
        wall = one_round(traced=False)
        if wall is None:
            break
        run_walls.append(wall)
    traced_wall = one_round(traced=True) if tracer and run_walls else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = wl.check() if failed < attempted else ["every operation failed"]
    for line in failures:
        print(f"CHECK FAILED: {line}")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {attempted // cls.ops_per_round}  nproc {nproc()}")
    print(f"  set-up wall (s): {setup_wall:.3f}")
    print(f"  serial fine walls (s): {', '.join(f'{w:.4f}' for w in serial_walls)}")
    print(f"  run walls (s): {', '.join(f'{w:.3f}' for w in run_walls)}")
    for line in wl.report():
        print(line)

    # Means, not medians, over the run's samples: the machine's speed holds
    # for stretches of several samples, and a median jumps to whichever
    # stretch held the most of them, where a mean weighs each by its time.
    serial_wall = statistics.fmean(serial_walls) if serial_walls else 0.0
    run_wall = statistics.fmean(run_walls) if run_walls else 0.0
    if tracer and traced_wall is None:
        metrics = {}
        failures.append("the traced round failed")
    elif tracer:
        values = tracer.layer_metrics()
        values["parareal.speedup_measured"] = serial_wall / run_wall
        values["trace.overhead_s"] = traced_wall - run_wall
        print(f"  speedup_measured = serial_fine_wall_s {serial_wall:.4f} s / run_wall_s {run_wall:.4f} s")
        print(f"  tracing overhead = traced run_wall_s {traced_wall:.4f} s - untraced {run_wall:.4f} s")
        print(f"  {'span':36s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in tracer.summary().items():
            print(f"  {name:36s} {row['calls']:>7d} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    elif run_walls:
        values = {
            "setup_s": setup_wall,
            "run_wall_s": run_wall,
            "serial_fine_wall_s": serial_wall,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {}
        failures.append("no operation completed")

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
