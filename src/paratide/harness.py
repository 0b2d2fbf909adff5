"""Experiment harness: spin-up, reference management, studies, reports.

A run starts from a seeded, spun-up state, executes the parallel-in-time
loop once per fine step-count and evaluates both error norms per iteration
against a cached restarted serial fine reference.  Its record is one
document, report.json: run_experiment builds it as a plain dict of JSON
values, and the error CSV and the text table are rendered from that dict,
so a report read back from report.json (``paratide emit``) renders the
same bytes.  Reference trajectories and the spun-up state are cached by a
hash of everything they depend on, so repeated experiments skip the serial
recomputation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .config import ExperimentConfig, PararealConfig, judged
from .errors import IOFailureError, ValidationError
from .metrics import (
    ERROR_CSV_HEADER,
    errors_at_final,
    first_crossing_iteration,
    max_profitable_iterations,
    rel_max_norm,
    speedup_bound,
    speedup_estimate,
)
from .parareal import PararealResult, run_parareal
from .propagator import PropagatorSpec, SliceLayout, restarted_serial_run
from .solver import SECONDS_PER_DAY, ModelParams, integrate
from .state import Field, FIELD_ORDER, Grid, ModelState

_NOISE_MODES = 3


def runs_root(config: ExperimentConfig) -> Path:
    """Run-directory root; the PARAREAL_RUNS_DIR env var wins over config."""
    override = os.environ.get("PARAREAL_RUNS_DIR")
    return Path(override) if override else Path(config.output_dir)


def _band_limited_noise(rng: np.random.Generator, grid: Grid, amp: float) -> np.ndarray:
    """Smooth random field from a handful of low-wavenumber cosine modes."""
    x = np.arange(grid.nx, dtype=np.float64)[None, :] / grid.nx
    y = np.arange(grid.ny, dtype=np.float64)[:, None] / grid.ny
    modes = [
        (kx, ky)
        for kx in range(0, _NOISE_MODES + 1)
        for ky in range(-_NOISE_MODES, _NOISE_MODES + 1)
        if (kx, ky) != (0, 0) and not (kx == 0 and ky < 0)
        and kx * kx + ky * ky <= _NOISE_MODES * _NOISE_MODES
    ]
    out = np.zeros((grid.ny, grid.nx))
    scale = amp / np.sqrt(len(modes))
    for kx, ky in modes:
        coeff = scale * rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += coeff * np.cos(2.0 * np.pi * (kx * x + ky * y) + phase)
    return out


def initial_state(grid: Grid, params: ModelParams, seed: int) -> ModelState:
    """Seeded smooth initial fields with discretely balanced velocities.

    The elevation noise is turned into velocities through the same
    centered differences the core uses, so the initial state starts out in
    geostrophic balance on the grid rather than in the continuum.
    """
    rng = np.random.default_rng(seed)
    eta = _band_limited_noise(rng, grid, 1.0e-3)
    temp = 10.0 + _band_limited_noise(rng, grid, 0.5)
    salt = 35.0 + _band_limited_noise(rng, grid, 0.05)

    deta_dx = (np.roll(eta, -1, axis=1) - np.roll(eta, 1, axis=1)) / (2.0 * grid.dx)
    deta_dy = (np.roll(eta, -1, axis=0) - np.roll(eta, 1, axis=0)) / (2.0 * grid.dy)
    u = -(params.g / params.f0) * deta_dy
    v = (params.g / params.f0) * deta_dx

    return ModelState(grid, np.stack([u, v, eta, temp, salt]), time=0)   # in FIELD_ORDER


def _cache_dir(config: ExperimentConfig) -> Path:
    return runs_root(config) / "cache" / config.hash()


def spin_up(config: ExperimentConfig) -> ModelState:
    """Integrate the seeded state onto the model's attractor (cached).

    A spin-up of zero days returns the seeded state unchanged.  The result
    is re-stamped to the layout start so experiments can treat it as their
    t0 state.

    The cache is keyed by config.spin_up_hash(), so configs that differ
    only in layout share one spin-up.
    """
    duration = config.spin_up_seconds
    dt = SECONDS_PER_DAY // config.spin_up_spd

    name = f"init_{duration}.prcp"
    shared = runs_root(config) / "cache" / f"spinup-{config.spin_up_hash()}" / name
    if shared.exists():
        state = read_checkpoint(shared, grid=config.grid).state
    else:
        state = initial_state(config.grid, config.params, config.seed)
        if duration > 0:
            state = integrate(state, duration, dt, config.params)
        write_checkpoint(state, None, shared)
    _link_spin_up(shared, _cache_dir(config) / name, state)
    return state.with_time(config.layout.t0)


def _link_spin_up(shared: Path, alias: Path, state: ModelState) -> None:
    """Keep the spin-up readable at its per-config path, the cache layout
    before spin-ups were shared: a hard link, or where the file system has
    none, a second copy of the same bytes."""
    if alias.exists():
        return
    alias.parent.mkdir(parents=True, exist_ok=True)
    try:
        os.link(shared, alias)
    except FileExistsError:
        pass
    except OSError:
        write_checkpoint(state, None, alias)


def serial_reference(
    config: ExperimentConfig, fine_spd: int, u0: ModelState
) -> list[ModelState]:
    """restarted_serial_run at fine_spd, cached under ref<fine_spd>/."""
    ref_dir = _cache_dir(config) / f"ref{fine_spd}"
    marker = ref_dir / "complete"
    if marker.exists():
        return [
            read_checkpoint(ref_dir / f"slice{n}.prcp", grid=config.grid).state
            for n in range(config.layout.n_slices + 1)
        ]

    states = restarted_serial_run(PropagatorSpec(fine_spd), u0, config.layout, config.params)
    for n, s in enumerate(states):
        write_checkpoint(s, None, ref_dir / f"slice{n}.prcp", slice_index=n)
    marker.write_text("ok\n")
    return states


# --------------------------------------------------------------------------
# Run report

def _error_cells(
    result: PararealResult, monitored: tuple[Field, ...], n_slices: int
) -> list[dict]:
    """One cell per (k, field) for k = 0 .. N_t - 1, read from the norms
    the run recorded against its reference.

    Iterations beyond an aborted run are marked skipped; a zero reference
    norm is reported as undefined instead of dividing.
    """
    cells = []
    for k in range(n_slices):
        for f in monitored:
            if k > result.iterations_run:
                status, pair = "skipped", (None, None)
            elif result.records[k].errors[f] is None:
                status, pair = "undefined", (None, None)
            else:
                status, pair = "ok", result.records[k].errors[f]
            cells.append({"k": k, "field": f.name, "status": status,
                          "E_inf": pair[0], "E_2": pair[1]})
    return cells


def _fine_run(
    result: PararealResult, cfg: PararealConfig, epsilon: float, run_id: str,
    ref_final: ModelState,
) -> dict:
    """The report of one fine step-count: its entry in fine_runs.

    epsilon is the report's threshold for first crossings; the run itself
    goes through every iteration.
    """
    n_slices = cfg.layout.n_slices
    # k = N_t reproduces the reference outright, so it never counts
    crossing = {
        f.name: first_crossing_iteration(
            {r.k: r.errors[f] for r in result.records[:n_slices]}, epsilon
        )
        for f in cfg.monitored_fields
    }
    exact = None
    if result.iterations_run == n_slices and not result.aborted:
        exact = {f.name: None if pair is None else pair[0]
                 for f, pair in errors_at_final(result.final, ref_final, FIELD_ORDER).items()}
    m_nominal = cfg.fine.spd / cfg.coarse.spd
    return {
        "fine_spd": cfg.fine.spd,
        "run_id": run_id,
        "iterations_run": result.iterations_run,
        "aborted": result.aborted,
        "m_nominal": m_nominal,
        "max_profitable_k": max_profitable_iterations(m_nominal, n_slices),
        "first_crossing": crossing,
        "exact_at_last": exact,     # per field, rel max at k = N_t; None where undefined
        "blow_ups": [
            {"k": e.k, "slice": e.slice_index, "phase": e.phase, "message": e.message}
            for e in result.blow_ups
        ],
        "errors": _error_cells(result, cfg.monitored_fields, n_slices),
        # k -> [coarse s, fine s]; JSON object keys are strings
        "wall": {str(r.k): [r.wall_coarse_s, r.wall_fine_s] for r in result.records},
        "speedup": [
            {"k": k, "estimate": speedup_estimate(k, n_slices, m_nominal),
             "bound": speedup_bound(k, n_slices, m_nominal)}
            for k in range(1, n_slices + 1)
        ],
    }


def run_experiment(config: ExperimentConfig, run_id: str | None = None) -> tuple[dict, Path]:
    """Run the configured experiment and emit all report artifacts.

    Returns the report (the report.json document) plus the directory the
    artifacts were written to.  Blow-ups under the continue policy are
    recorded, not raised; abort-mode blow-ups propagate.
    """
    run_id = run_id or config.run_name()
    root = runs_root(config)
    run_dir = root / run_id
    u0 = spin_up(config)

    fine_runs = []
    for nf in config.fine_spds:
        reference = serial_reference(config, nf, u0)
        sub_id = f"{run_id}-nf{nf}"
        cfg = config.parareal_config(nf)
        result = run_parareal(
            u0, cfg, config.params,
            reference=reference,
            run_dir=run_dir / f"nf{nf}",
            run_id=sub_id,
        )
        fine_runs.append(_fine_run(result, cfg, config.epsilon, sub_id, reference[-1]))

    report = {
        "run_id": run_id,
        "config_path": config.source_path,
        "config_hash": config.hash(),
        "epsilon": config.epsilon,
        "n_slices": config.layout.n_slices,
        "slice_length": config.layout.slice_length,
        "coarse_spd": config.coarse_spd,
        "monitored": [f.name for f in config.monitored_fields],
        "flags": {"tracer_crossing_anomaly": _tracer_anomaly(fine_runs)},
        "fine_runs": fine_runs,
    }
    emit_report(report, "csv", run_dir)
    emit_report(report, "text-table", run_dir)
    _write_json(run_dir / "report.json", report)
    return report, run_dir


def _tracer_anomaly(fine_runs: list[dict]) -> bool:
    """True when a monitored tracer needed more iterations than the zonal
    velocity.  Crossings that never happen count as infinity, so a
    stagnating velocity never flags the tracers.
    """
    inf = float("inf")
    for fr in fine_runs:
        if fr["aborted"]:
            continue
        crossing = {name: inf if k is None else k for name, k in fr["first_crossing"].items()}
        u_val = crossing.get("U", inf)
        if any(crossing[t] > u_val for t in ("T", "S") if t in crossing):
            return True
    return False


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_report(report: dict, fmt: str, out_dir: str | Path) -> Path:
    """Write the error CSV or the text table of a report.json document;
    bytes are deterministic for identical reports apart from the timing
    columns in the CSV."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path = out_dir / "errors.csv"
            lines = [",".join(ERROR_CSV_HEADER)]
            for fr in report["fine_runs"]:
                blow_by_k: dict[int, list[str]] = {}
                for b in fr["blow_ups"]:
                    blow_by_k.setdefault(b["k"], []).append(f"slice{b['slice']}")
                for cell in fr["errors"]:
                    wall = fr["wall"].get(str(cell["k"]), (None, None))   # None: not run
                    if cell["status"] == "ok":
                        e_inf, e_2 = _fmt(cell["E_inf"]), _fmt(cell["E_2"])
                    else:
                        e_inf = e_2 = cell["status"]
                    lines.append(",".join([
                        fr["run_id"],
                        str(cell["k"]),
                        cell["field"],
                        e_inf,
                        e_2,
                        _fmt(wall[0]),
                        _fmt(wall[1]),
                        ";".join(blow_by_k.get(cell["k"], [])),
                    ]))
            path.write_text("\n".join(lines) + "\n")
            return path
        if fmt == "text-table":
            path = out_dir / "report.txt"
            path.write_text(_text_table(report))
            return path
    except OSError as err:
        raise IOFailureError(f"cannot emit report into {out_dir}: {err}") from err
    raise ValueError(f"unknown report format {fmt!r}")


def _text_table(report: dict) -> str:
    lines = []
    lines.append(f"run {report['run_id']}  (config {report['config_path']})")
    lines.append("")
    lines.append("settings")
    lines.append("  dT(s)    T(s)      N_F          N_G  N_t")
    total = report["n_slices"] * report["slice_length"]
    nf_list = ",".join(str(fr["fine_spd"]) for fr in report["fine_runs"])
    lines.append(
        f"  {report['slice_length']:<8d} {total:<9d} {nf_list:<12s} "
        f"{report['coarse_spd']:<4d} {report['n_slices']}"
    )
    lines.append("")
    for fr in report["fine_runs"]:
        lines.append(
            f"fine spd {fr['fine_spd']} (m={fr['m_nominal']:g}, "
            f"profitable K<={fr['max_profitable_k']}, "
            f"iterations run {fr['iterations_run']}{', ABORTED' if fr['aborted'] else ''})"
        )
        crossing = ", ".join(
            f"{name}: {'-' if k is None else k}"
            for name, k in sorted(fr["first_crossing"].items())
        )
        lines.append(f"  first k with both norms <= {report['epsilon']:g}: {crossing}")
        defined = [e for e in (fr["exact_at_last"] or {}).values() if e is not None]
        if defined:
            lines.append(f"  exact at k=N_t: worst field rel max-norm {max(defined):.3e}")
        for b in fr["blow_ups"]:
            lines.append(f"  blow-up: k={b['k']} slice={b['slice']} phase={b['phase']}")
        lines.append("  k  S_estimate  S_bound")
        for row in fr["speedup"]:
            lines.append(f"  {row['k']:<2d} {row['estimate']:>10.6f}  {row['bound']:>8.6f}")
        lines.append("")
    for name, value in sorted(report["flags"].items()):
        lines.append(f"flag {name}: {'yes' if value else 'no'}")
    lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Restart-consistency study

@dataclass(frozen=True)
class RestartStudyRow:
    n_slices: int
    slice_seconds: int
    cold_deviation: float         # max over monitored fields, rel max-norm
    warm_deviation: float
    warm_bit_exact: bool


@dataclass(frozen=True)
class RestartStudyReport:
    total_seconds: int
    spd: int
    rows: tuple[RestartStudyRow, ...]
    cold_non_decreasing: bool     # observed property, report-only

    def to_text(self) -> str:
        lines = [
            f"restart consistency study: {self.total_seconds}s at {self.spd} spd",
            "n_slices slice_s  cold_dev      warm_dev  warm_bit_exact",
        ]
        for r in self.rows:
            lines.append(
                f"{r.n_slices:<8d} {r.slice_seconds:<8d} {r.cold_deviation:<13.6e} "
                f"{r.warm_deviation:<9.1e} {'yes' if r.warm_bit_exact else 'NO'}"
            )
        lines.append(
            f"cold deviation non-decreasing in slice count: "
            f"{'yes' if self.cold_non_decreasing else 'no (reported, not asserted)'}"
        )
        lines.append("")
        return "\n".join(lines)


def restart_consistency_study(
    config: ExperimentConfig, slice_counts: tuple[int, ...], total_days: float
) -> RestartStudyReport:
    """Quantify split-vs-consecutive deviation for both restart policies.

    A fixed window is split into increasingly many slices; each split run
    is a restarted_serial_run over the split, the consecutive run one over
    the whole window.  Warm chains must match bit-exactly, cold chains
    deviate.
    """
    seconds = total_days * SECONDS_PER_DAY
    if not 0 < seconds < float("inf"):
        raise ValidationError(f"restart study: days={total_days!r} is not a positive finite span")
    total = int(round(seconds))
    spd = config.coarse_spd
    window = judged("restart study: ", SliceLayout,
                    t0=config.layout.t0, slice_length=total, n_slices=1)
    layouts = [judged("restart study: ", window.split, n) for n in slice_counts]
    for layout in layouts:
        config.step(f"restart study: coarse_spd={spd}", spd, layout.slice_length)
    u0 = spin_up(config)

    consecutive = restarted_serial_run(PropagatorSpec(spd), u0, window, config.params)[-1]

    rows = []
    for layout in layouts:
        devs = {}
        finals = {}
        for policy in ("cold", "warm"):
            spec = PropagatorSpec(spd, restart_policy=policy)
            final = restarted_serial_run(spec, u0, layout, config.params)[-1]
            finals[policy] = final
            devs[policy] = max(
                rel_max_norm(final.field(f), consecutive.field(f))
                for f in config.monitored_fields
            )
        rows.append(
            RestartStudyRow(
                n_slices=layout.n_slices,
                slice_seconds=layout.slice_length,
                cold_deviation=devs["cold"],
                warm_deviation=devs["warm"],
                warm_bit_exact=finals["warm"].bit_equal(consecutive),
            )
        )

    cold = [r.cold_deviation for r in rows]
    non_decreasing = all(b >= a for a, b in zip(cold, cold[1:]))
    return RestartStudyReport(
        total_seconds=total, spd=spd, rows=tuple(rows), cold_non_decreasing=non_decreasing
    )


# --------------------------------------------------------------------------
# Time-averaged serial error study

def time_averaged_study(
    config: ExperimentConfig, spd_list: tuple[int, ...] | None = None
) -> dict[int, dict[Field, tuple[float, ...]]]:
    """Per-slice relative max-norm of slice-averaged fields of serial runs
    against the run at the reference spd, which reads as an all-zero series.

    Each run restarts cold per slice; its slice average is over the states
    reached after each step within the slice, so every slice contributes
    the same number of samples at every step count.
    """
    if spd_list is None:
        spd_list = (config.coarse_spd, *config.fine_spds)
    layout = config.layout
    steps = {spd: config.step(f"time-averaged study: spd={spd}", spd, layout.slice_length)
             for spd in sorted({*spd_list, config.reference_spd})}
    u0 = spin_up(config)
    means: dict[int, list[np.ndarray]] = {}
    for spd, dt in steps.items():
        state, means[spd] = u0, []
        for _ in range(layout.n_slices):
            acc = np.zeros_like(state.data)
            state = integrate(state, state.time + layout.slice_length, dt, config.params,
                              on_step=acc.__iadd__)
            means[spd].append(acc / (layout.slice_length // dt))
    reference = means[config.reference_spd]
    return {
        spd: {f: tuple(rel_max_norm(m[f.value], r[f.value]) for m, r in zip(run, reference))
              for f in config.monitored_fields}
        for spd, run in means.items()
    }
