"""Command-line surface: sweep tables, fidelity tables, verification, export.

Exit codes: 0 success, 1 usage or bad parameters, 2 accuracy/tolerance
failure, 3 I/O failure.  CVTELEPORT_OUTDIR supplies the base directory for
relative output paths.  A config file of flat key=value lines can provide
flag defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .channel import ChannelParams, direct_noise, is_separable, noise_factor, teleport_vs_direct_gap
from .errors import AccuracyError, ConfigurationError, CvtError, as_index, as_number
from .fidelity import fock_fidelity, overlap_fidelity, squeezed_fidelity
from .nonclassicality import (
    PhotonStats,
    p_positive_after_teleport,
    photon_statistics,
    quadrature_statistics,
    squeezing_threshold,
    sub_poisson_threshold,
)
from .phase_space import DEFAULT_EXTENT, DEFAULT_RESOLUTION, _write_text, convert_sigma, save_grid
from .states import coherent_wigner, fock_wigner, squeezed_vacuum_wigner, vacuum_wigner
from .teleport import teleport_state
from .verify import LEVELS, run_all

OUTDIR_ENV = "CVTELEPORT_OUTDIR"

SWEEP_COLUMNS = ("s_qc", "n_bar", "T", "n_tau", "n_d", "gap", "separable")
TABLE_COLUMNS = ("n_tau", "f_closed", "f_grid", "abs_delta")
GRID_TOLERANCE = 1e-4
MAX_RESOLUTION = 2048
MAX_STEPS = 1000
MAX_POINTS = 100_000  # in one --squeezing x --nbar x --time lattice


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{flag} expects a number, got {text!r}")
    return as_number(value, flag)


def _parse_range(text: str, flag: str) -> np.ndarray:
    """'start:stop:steps' or a single value; 1 <= steps <= MAX_STEPS."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([_parse_float(parts[0], flag)])
    if len(parts) != 3:
        raise ConfigurationError(f"{flag} expects VALUE or START:STOP:STEPS, got {text!r}")
    start = _parse_float(parts[0], flag)
    stop = _parse_float(parts[1], flag)
    try:
        steps = int(parts[2])
    except ValueError:
        raise ConfigurationError(f"{flag} steps must be an integer, got {parts[2]!r}")
    if steps < 1:
        raise ConfigurationError(f"{flag} needs at least one step, got {steps}")
    if steps > MAX_STEPS:
        raise ConfigurationError(f"{flag} allows at most {MAX_STEPS} steps, got {steps}")
    return np.linspace(start, stop, steps)


def _parse_state(text: str, extent: float, resolution: int):
    """(kind, None | m | s_o | mu, WignerGrid) of vacuum | fock:m | squeezed:s_o | coherent:re,im"""
    kind, _, arg = text.partition(":")
    if kind == "vacuum" and not arg:
        return kind, None, vacuum_wigner(extent=extent, resolution=resolution)
    if kind == "fock":
        try:
            m = int(arg)
        except ValueError:
            raise ConfigurationError(f"fock selector expects an integer index, got {arg!r}")
        return kind, m, fock_wigner(m, extent=extent, resolution=resolution)
    if kind == "squeezed":
        s_o = _parse_float(arg, "--state squeezed")
        return kind, s_o, squeezed_vacuum_wigner(s_o, extent=extent, resolution=resolution)
    if kind == "coherent":
        re_s, sep, im_s = arg.partition(",")
        if not sep:
            raise ConfigurationError("coherent selector expects RE,IM")
        mu = complex(_parse_float(re_s, "--state coherent"), _parse_float(im_s, "--state coherent"))
        return kind, mu, coherent_wigner(mu, extent=extent, resolution=resolution)
    raise ConfigurationError(f"unknown state selector {text!r}")


def _load_config(path: str) -> dict:
    conf = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            conf[key.strip().replace("-", "_")] = value.strip()
    return conf


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    conf = _load_config(args.config)
    for key, value in conf.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_out(path):
    """The --out path under $CVTELEPORT_OUTDIR; None for a missing or empty one."""
    if not path:
        return None
    base = os.environ.get(OUTDIR_ENV, "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(args, text: str) -> None:
    """Write ``text`` to the ``--out`` path, or to stdout without one."""
    out = _resolve_out(args.out)
    if out:
        _write_text(out, [text])
    else:
        sys.stdout.write(text)


def _emit_table(args, command, columns, rows, **extra):
    fmt = args.format or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"--format must be csv or json, got {fmt!r}")
    if fmt == "csv":
        lines = [columns] + [[_fmt(v) for v in row] for row in rows]
        text = "".join(",".join(cells) + "\r\n" for cells in lines)
    else:
        payload = {
            "command": command,
            "rows": [
                {col: (v if isinstance(v, bool) else _round12(v)) for col, v in zip(columns, row)}
                for row in rows
            ],
            **extra,
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(args, text)


def _grid_settings(args):
    extent = _parse_float(args.grid_extent, "--grid-extent") if args.grid_extent else DEFAULT_EXTENT
    if not args.grid_res:
        return extent, DEFAULT_RESOLUTION
    try:
        res = int(args.grid_res)
    except ValueError:
        raise ConfigurationError(f"--grid-res expects an integer, got {args.grid_res!r}")
    return extent, as_index(res, "--grid-res", 8, MAX_RESOLUTION)


def _channel_points(args):
    """ChannelParams over the --squeezing x --nbar x --time lattice; each defaults to 0,
    and a lattice of more than MAX_POINTS points raises before the first."""
    s_values = _parse_range(args.squeezing or "0", "--squeezing")
    n_values = _parse_range(args.nbar or "0", "--nbar")
    t_values = _parse_range(args.time or "0", "--time")
    points = len(s_values) * len(n_values) * len(t_values)
    if points > MAX_POINTS:
        raise ConfigurationError(
            f"the --squeezing x --nbar x --time lattice has {points} points, at most {MAX_POINTS}"
        )
    for s_qc, n_bar, T in itertools.product(s_values, n_values, t_values):
        yield ChannelParams(s_qc=float(s_qc), n_bar=float(n_bar), T=float(T))


def _noise_points(args):
    """(n_tau, ChannelParams or None) per --ntau value, or else per channel lattice point."""
    if args.ntau:
        return ((float(n_tau), None) for n_tau in _parse_range(args.ntau, "--ntau"))
    return ((noise_factor(p).value, p) for p in _channel_points(args))


def cmd_noise_sweep(args) -> int:
    rows = [
        (
            p.s_qc,
            p.n_bar,
            p.T,
            noise_factor(p).value,
            direct_noise(p).value,
            teleport_vs_direct_gap(p),
            is_separable(p),
        )
        for p in _channel_points(args)
    ]
    _emit_table(args, "noise-sweep", SWEEP_COLUMNS, rows)
    return 0


def cmd_fidelity_table(args) -> int:
    if not args.state:
        raise ConfigurationError("--state is required (fock:m or squeezed:s_o)")
    if args.state.partition(":")[0] not in ("fock", "squeezed"):
        raise ConfigurationError(
            f"fidelity table supports fock:m and squeezed:s_o, got {args.state!r}"
        )
    extent, res = _grid_settings(args)
    points = list(_noise_points(args))
    kind, param, w_in = _parse_state(args.state, extent, res)
    rows = []
    for n_tau, _ in points:
        f_closed = (fock_fidelity if kind == "fock" else squeezed_fidelity)(param, n_tau).value
        f_grid = overlap_fidelity(w_in, teleport_state(w_in, n_tau)).value
        delta = abs(f_closed - f_grid)
        if delta > GRID_TOLERANCE:
            raise AccuracyError(
                f"grid fidelity deviates by {delta:.3g} at n_tau = {n_tau:.6g}"
                f" (tolerance {GRID_TOLERANCE})"
            )
        rows.append((n_tau, f_closed, f_grid, delta))
    _emit_table(args, "fidelity-table", TABLE_COLUMNS, rows, state=args.state)
    return 0


def cmd_verify(args) -> int:
    # level and format may come from a config file; run_all checks the level
    level = args.level or "quick"
    fmt = args.format or "text"
    if fmt not in ("text", "json"):
        raise ConfigurationError(f"--format must be text or json, got {fmt!r}")
    results = run_all(level=level)
    all_passed = all(r.passed is not False for r in results)
    if fmt == "json":
        payload = {
            "command": "verify",
            "level": level,
            "all_passed": all_passed,
            "results": [
                {
                    "criterion": r.criterion,
                    "name": r.name,
                    "status": r.status,
                    "detail": r.detail,
                    "seconds": round(r.seconds, 3),
                }
                for r in results
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(
            f"criterion {r.criterion} [{r.status}] {r.name}: {r.detail} ({r.seconds:.2f}s)\n"
            for r in results
        )
        text += "all passed\n" if all_passed else "FAILED\n"
    _emit(args, text)
    return 0 if all_passed else 2


def cmd_teleport_export(args) -> int:
    extent, res = _grid_settings(args)
    if not (args.ntau or (args.squeezing and args.nbar and args.time)):
        raise ConfigurationError("teleport-export needs --ntau or all of --squeezing/--nbar/--time")
    (n_tau, p), *more = itertools.islice(_noise_points(args), 2)  # a lattice may be vast
    if more:
        raise ConfigurationError("teleport-export takes one noise point, not a range of them")
    label = args.state or "vacuum"
    kind, param, w_in = _parse_state(label, extent, res)
    w_out = teleport_state(w_in, n_tau)
    # every number comes before the first file, and report.json comes last
    stats = photon_statistics(w_out)
    quad0 = quadrature_statistics(w_out, 0.0)
    # the input's thresholds are those of its closed form; vacuum and coherent states have none
    sub_poisson = sub_poisson_threshold(PhotonStats(param, 0.0)) if kind == "fock" else None
    squeezing = squeezing_threshold(np.exp(-2.0 * abs(param))) if kind == "squeezed" else None
    q_min = float(convert_sigma(w_out, -1.0).values.min())

    outdir = _resolve_out(args.out or ".")
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(outdir, "report.json")
    # a report left by an earlier export must not vouch for a failed one
    if os.path.lexists(report_path):
        os.remove(report_path)
    in_files = save_grid(w_in, os.path.join(outdir, "input_wigner"))
    out_files = save_grid(w_out, os.path.join(outdir, "teleported_wigner"))
    report = {
        "command": "teleport-export",
        "state": label,
        "n_tau": _round12(n_tau),
        "channel": None if p is None else vars(p),
        "files": {"input": list(in_files), "teleported": list(out_files)},
        "teleported_moments": {
            "mean_photon": _round12(stats.mean),
            "photon_variance": _round12(stats.variance),
            "quadrature_mean": _round12(quad0.mean),
            "quadrature_variance": _round12(quad0.variance),
        },
        "thresholds": {
            "sub_poisson": _maybe_round(sub_poisson),
            "squeezing": _maybe_round(squeezing),
            "p_positive_after_teleport": bool(p_positive_after_teleport(n_tau)),
        },
        "grid_min": {
            "teleported_wigner": _round12(float(w_out.values.min())),
            "q_ordering": _round12(q_min),
        },
    }
    _write_text(report_path, [json.dumps(report, indent=2) + "\n"])
    sys.stdout.write(f"wrote {report_path}\n")
    return 0


def _maybe_round(x):
    return None if x is None else _round12(x)


# each subcommand registers only the flags it reads
_FLAG_HELP = {
    "--config": "flat key=value file supplying flag defaults",
    "--squeezing": "channel squeezing s_qc (VALUE or START:STOP:STEPS)",
    "--nbar": "bath mean occupation (VALUE or START:STOP:STEPS)",
    "--time": "renormalized time T in [0,1] (VALUE or START:STOP:STEPS)",
    "--ntau": "teleportation noise directly (VALUE or START:STOP:STEPS)",
    "--state": "vacuum | fock:m | squeezed:s_o | coherent:re,im",
    "--grid-extent": "phase-space half-width",
    "--grid-res": "grid points per axis",
    "--out": "output path (relative paths land in $CVTELEPORT_OUTDIR)",
    "--format": "csv or json (tables), text or json (verify)",
}


def _add_flags(sub, *flags):
    for flag in flags:
        sub.add_argument(flag, help=_FLAG_HELP[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="cvteleport", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("noise-sweep", help="tabulate noise factor, gap, separability")
    _add_flags(sweep, "--config", "--squeezing", "--nbar", "--time", "--out", "--format")
    sweep.set_defaults(func=cmd_noise_sweep)

    table = commands.add_parser("fidelity-table", help="closed-form vs grid fidelity")
    _add_flags(table, *_FLAG_HELP)
    table.set_defaults(func=cmd_fidelity_table)

    verify = commands.add_parser("verify", help="run the acceptance checks")
    verify.add_argument("level", nargs="?", choices=LEVELS, default=None)
    _add_flags(verify, "--config", "--out", "--format")
    verify.set_defaults(func=cmd_verify)

    export = commands.add_parser("teleport-export", help="write input/teleported grids + report")
    _add_flags(export, *(flag for flag in _FLAG_HELP if flag != "--format"))
    export.set_defaults(func=cmd_teleport_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except AccuracyError as exc:
        sys.stderr.write(f"cvteleport: accuracy: {exc}\n")
        return 2
    except CvtError as exc:
        sys.stderr.write(f"cvteleport: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"cvteleport: i/o: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
