"""Command-line interface.

Subcommands:

    run <config>            full experiment: references, parareal, reports
    serial <config> --spd N restarted serial reference run (cached)
    single-shot ...         one propagation, the external-propagator target
    speedup --m M --nt N    speedup model table
    restart-study <config>  split-vs-consecutive deviation table
    avg-error <config>      per-slice time-averaged serial errors
    emit <report.json>      re-emit a stored report as csv or text-table

Exit codes: 0 success, 2 validation/parse error, 3 blow-up in abort mode,
4 I/O failure.

The harness and the metrics are imported inside the commands that use
them: single-shot, which runs once per external slice, then loads only the
config, checkpoint, solver and state modules (and the propagator and
errors modules they import).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .config import int_list, judged, parse_config, parse_model, parsed
from .errors import BlowUpError, EngineError, IOFailureError, NonFiniteError, ValidationError
from .propagator import PropagatorSpec
from .solver import integrate_history

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOW_UP = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):   # add_subparsers makes its parsers of this class
    def error(self, message):   # to main, which exits 2 as for every bad flag
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paratide")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--run-id", default=None)

    p_serial = sub.add_parser("serial", help="restarted serial reference run")
    p_serial.add_argument("config")
    p_serial.add_argument("--spd", type=int, required=True)
    p_serial.add_argument("--out", default=None, help="write the final state here")

    p_single = sub.add_parser("single-shot", help="one propagation via checkpoint files")
    p_single.add_argument("--in", dest="in_path", required=True)
    p_single.add_argument("--out", dest="out_path", required=True)
    p_single.add_argument("--t-end", dest="t_end", type=int, required=True)
    p_single.add_argument("--spd", type=int, required=True)
    p_single.add_argument("--config", required=True, help="grid and model parameters")

    p_speed = sub.add_parser("speedup", help="speedup model table")
    p_speed.add_argument("--m", type=float, required=True)
    p_speed.add_argument("--nt", type=int, required=True)
    p_speed.add_argument("--k", type=int, default=None)

    p_study = sub.add_parser("restart-study", help="cold vs warm restart deviation")
    p_study.add_argument("config")
    p_study.add_argument("--slices", default="1,2,4,6")
    p_study.add_argument("--days", type=float, default=1.0)

    p_avg = sub.add_parser("avg-error", help="time-averaged serial error study")
    p_avg.add_argument("config")
    p_avg.add_argument("--spd-list", default=None, help="comma list; default coarse+fine spds")

    p_emit = sub.add_parser("emit", help="re-emit a stored report")
    p_emit.add_argument("report", help="path to report.json")
    p_emit.add_argument("--format", choices=("csv", "text-table"), required=True)
    p_emit.add_argument("--out-dir", default=None)

    return parser


def _cmd_run(args) -> int:
    from . import harness

    config = parse_config(args.config)
    report, run_dir = harness.run_experiment(config, run_id=args.run_id)
    print(f"report written to {run_dir}")
    for fr in report["fine_runs"]:
        crossing = ", ".join(
            f"{name}={'-' if k is None else k}" for name, k in sorted(fr["first_crossing"].items())
        )
        print(
            f"  nf{fr['fine_spd']}: iterations={fr['iterations_run']} "
            f"first-crossing[{crossing}] profitable K<={fr['max_profitable_k']}"
            f"{' ABORTED' if fr['aborted'] else ''}"
        )
    return EXIT_OK


def _cmd_serial(args) -> int:
    from . import harness

    config = parse_config(args.config)
    config.step("--spd", args.spd, config.layout.slice_length)     # before the spin-up
    u0 = harness.spin_up(config)
    states = harness.serial_reference(config, args.spd, u0)
    final = states[-1]
    print(f"serial reference at {args.spd} spd: {len(states) - 1} slices, final t={final.time}s")
    if args.out:
        write_checkpoint(final, None, args.out)
        print(f"final state written to {args.out}")
    return EXIT_OK


def _cmd_single_shot(args) -> int:
    dt = judged("--spd: ", PropagatorSpec, args.spd).dt      # before any work
    grid, params = parse_model(args.config)
    ck = read_checkpoint(args.in_path, grid=grid)
    if not all(np.isfinite(a).all() for a in (ck.state.data, *ck.history)):
        raise NonFiniteError(f"{args.in_path}: state or history is not finite")
    h = integrate_history(ck.step_history(dt), args.t_end, dt, params)
    write_checkpoint(
        h.current, h, args.out_path,
        slice_index=ck.slice_index, iteration=ck.iteration,
    )
    return EXIT_OK


def _cmd_speedup(args) -> int:
    from .metrics import max_profitable_iterations, speedup_bound, speedup_estimate

    ks = [args.k] if args.k is not None else list(range(1, args.nt + 1))
    rows, best = judged("speedup: ", lambda: (
        [f"{k} {speedup_estimate(k, args.nt, args.m):.6f} "
         f"{speedup_bound(k, args.nt, args.m):.6f}" for k in ks],
        max_profitable_iterations(args.m, args.nt),
    ))
    print(f"speedup model: N_t={args.nt} m={args.m:g}")
    print("\n".join(["k estimate bound", *rows, f"max profitable K: {best}"]))
    return EXIT_OK


def _cmd_restart_study(args) -> int:
    from . import harness

    counts = parsed("--slices", int_list, args.slices)
    config = parse_config(args.config)
    report = harness.restart_consistency_study(config, counts, args.days)
    print(report.to_text(), end="")
    return EXIT_OK


def _cmd_avg_error(args) -> int:
    from . import harness

    spd_list = None if args.spd_list is None else parsed("--spd-list", int_list, args.spd_list)
    config = parse_config(args.config)
    series = harness.time_averaged_study(config, spd_list)
    print(f"time-averaged errors vs {config.reference_spd} spd reference")
    print("spd,slice,field,E_inf")
    for spd in sorted(series):
        for f, values in series[spd].items():
            for n, e in enumerate(values):
                print(f"{spd},{n},{f.name},{e!r}")
    return EXIT_OK


def _cmd_emit(args) -> int:
    from . import harness

    path = Path(args.report)
    if not path.exists():
        raise IOFailureError(f"{path}: no such report")
    out_dir = Path(args.out_dir) if args.out_dir else path.parent
    try:
        written = harness.emit_report(json.loads(path.read_text()), args.format, out_dir)
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        # not JSON, or JSON without the shape of a report
        raise IOFailureError(f"{path}: not a report ({err!r})") from err
    print(f"wrote {written}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "serial": _cmd_serial,
    "single-shot": _cmd_single_shot,
    "speedup": _cmd_speedup,
    "restart-study": _cmd_restart_study,
    "avg-error": _cmd_avg_error,
    "emit": _cmd_emit,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOW_UP
    except (IOFailureError, OSError) as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO
    except EngineError as err:      # after its subclasses BlowUpError and IOFailureError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())
