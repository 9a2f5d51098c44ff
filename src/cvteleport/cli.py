"""Command-line surface: sweep tables, fidelity tables, verification, export.

Exit codes: 0 success, 1 usage or bad parameters, 2 accuracy/tolerance
failure, 3 I/O failure.  CVTELEPORT_OUTDIR supplies the base directory for
relative output paths.  A config file of flat key=value lines can provide
flag defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .channel import ChannelParams, direct_noise, is_separable, noise_factor, teleport_vs_direct_gap
from .errors import AccuracyError, ConfigurationError, CvtError, DomainError
from .fidelity import fock_fidelity, overlap_fidelity, squeezed_fidelity
from .nonclassicality import (
    p_positive_after_teleport,
    photon_statistics,
    quadrature_statistics,
    squeezing_threshold,
    sub_poisson_threshold,
)
from .phase_space import convert_sigma, save_grid
from .states import coherent_wigner, fock_wigner, squeezed_vacuum_wigner, vacuum_wigner
from .teleport import teleport_state
from .verify import run_all

OUTDIR_ENV = "CVTELEPORT_OUTDIR"

SWEEP_COLUMNS = ("s_qc", "n_bar", "T", "n_tau", "n_d", "gap", "separable")
TABLE_COLUMNS = ("n_tau", "f_closed", "f_grid", "abs_delta")
GRID_TOLERANCE = 1e-4
VERIFY_LEVELS = ("quick", "full")


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
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{flag} expects a number, got {text!r}")


def _parse_range(text: str, flag: str) -> np.ndarray:
    """'start:stop:steps' or a single value; steps >= 1."""
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
    return np.linspace(start, stop, steps)


def _parse_state(text: str, extent: float, resolution: int):
    """Selector -> (label, WignerGrid).  vacuum | fock:m | squeezed:s | coherent:re,im"""
    kind, _, arg = text.partition(":")
    if kind == "vacuum" and not arg:
        return text, vacuum_wigner(extent=extent, resolution=resolution)
    if kind == "fock":
        try:
            m = int(arg)
        except ValueError:
            raise ConfigurationError(f"fock selector expects an integer index, got {arg!r}")
        return text, fock_wigner(m, extent=extent, resolution=resolution)
    if kind == "squeezed":
        s_o = _parse_float(arg, "--state squeezed")
        return text, squeezed_vacuum_wigner(s_o, extent=extent, resolution=resolution)
    if kind == "coherent":
        re_s, sep, im_s = arg.partition(",")
        if not sep:
            raise ConfigurationError("coherent selector expects RE,IM")
        mu = complex(_parse_float(re_s, "--state coherent"), _parse_float(im_s, "--state coherent"))
        return text, coherent_wigner(mu, extent=extent, resolution=resolution)
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
    if path is None:
        return None
    base = os.environ.get(OUTDIR_ENV, "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit_table(args, command, columns, rows):
    fmt = args.format or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"--format must be csv or json, got {fmt!r}")
    out = _resolve_out(args.out)
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        else:
            payload = {
                "command": command,
                "rows": [
                    {
                        col: (v if isinstance(v, bool) else _round12(v))
                        for col, v in zip(columns, row)
                    }
                    for row in rows
                ],
            }
            if command == "fidelity-table":
                payload["state"] = args.state
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    finally:
        if out:
            fh.close()


def _grid_settings(args):
    extent = _parse_float(args.grid_extent, "--grid-extent") if args.grid_extent else 6.0
    res = int(_parse_float(args.grid_res, "--grid-res")) if args.grid_res else 256
    return extent, res


def cmd_noise_sweep(args) -> int:
    s_values = _parse_range(args.squeezing or "0", "--squeezing")
    n_values = _parse_range(args.nbar or "0", "--nbar")
    t_values = _parse_range(args.time or "0", "--time")
    rows = []
    for s_qc in s_values:
        for n_bar in n_values:
            for T in t_values:
                p = ChannelParams(s_qc=float(s_qc), n_bar=float(n_bar), T=float(T))
                rows.append(
                    (
                        p.s_qc,
                        p.n_bar,
                        p.T,
                        noise_factor(p).value,
                        direct_noise(p.n_bar, p.T).value,
                        teleport_vs_direct_gap(p),
                        is_separable(p),
                    )
                )
    _emit_table(args, "noise-sweep", SWEEP_COLUMNS, rows)
    return 0


def _ntau_values(args):
    if args.ntau:
        return [float(v) for v in _parse_range(args.ntau, "--ntau")]
    values = []
    for s_qc in _parse_range(args.squeezing or "0", "--squeezing"):
        for n_bar in _parse_range(args.nbar or "0", "--nbar"):
            for T in _parse_range(args.time or "0", "--time"):
                values.append(
                    noise_factor(ChannelParams(float(s_qc), float(n_bar), float(T))).value
                )
    return values


def cmd_fidelity_table(args) -> int:
    if not args.state:
        raise ConfigurationError("--state is required (fock:m or squeezed:s_o)")
    kind, _, arg = args.state.partition(":")
    if kind not in ("fock", "squeezed"):
        raise ConfigurationError(
            f"fidelity table supports fock:m and squeezed:s_o, got {args.state!r}"
        )
    extent, res = _grid_settings(args)
    _, w_in = _parse_state(args.state, extent, res)
    rows = []
    for n_tau in _ntau_values(args):
        if kind == "fock":
            f_closed = fock_fidelity(int(arg), n_tau).value
        else:
            f_closed = squeezed_fidelity(float(arg), n_tau).value
        f_grid = overlap_fidelity(w_in, teleport_state(w_in, n_tau)).value
        delta = abs(f_closed - f_grid)
        if delta > GRID_TOLERANCE:
            raise AccuracyError(
                f"grid fidelity deviates by {delta:.3g} at n_tau = {n_tau:.6g}"
                f" (tolerance {GRID_TOLERANCE})"
            )
        rows.append((n_tau, f_closed, f_grid, delta))
    _emit_table(args, "fidelity-table", TABLE_COLUMNS, rows)
    return 0


def cmd_verify(args) -> int:
    # level and format may come from a config file, which argparse never sees
    level = args.level or "quick"
    if level not in VERIFY_LEVELS:
        raise ConfigurationError(f"level must be one of {VERIFY_LEVELS}, got {level!r}")
    fmt = args.format or "text"
    if fmt not in ("text", "json"):
        raise ConfigurationError(f"--format must be text or json, got {fmt!r}")
    mutation = _parse_float(args.mutate_kernel, "--mutate-kernel") if args.mutate_kernel else 0.0
    results = run_all(level=level, kernel_mutation=mutation)
    all_passed = all(r.passed is not False for r in results)
    out = _resolve_out(args.out)
    fh = open(out, "w") if out else sys.stdout
    try:
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
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            for r in results:
                fh.write(
                    f"criterion {r.criterion} [{r.status}] {r.name}: "
                    f"{r.detail} ({r.seconds:.2f}s)\n"
                )
            fh.write("all passed\n" if all_passed else "FAILED\n")
    finally:
        if out:
            fh.close()
    return 0 if all_passed else 2


def cmd_teleport_export(args) -> int:
    extent, res = _grid_settings(args)
    label, w_in = _parse_state(args.state or "vacuum", extent, res)
    channel = None
    if args.ntau is not None:
        n_tau = _parse_float(args.ntau, "--ntau")
    else:
        if args.squeezing is None or args.nbar is None or args.time is None:
            raise ConfigurationError(
                "teleport-export needs --ntau or all of --squeezing/--nbar/--time"
            )
        p = ChannelParams(
            s_qc=_parse_float(args.squeezing, "--squeezing"),
            n_bar=_parse_float(args.nbar, "--nbar"),
            T=_parse_float(args.time, "--time"),
        )
        channel = {"s_qc": p.s_qc, "n_bar": p.n_bar, "T": p.T}
        n_tau = noise_factor(p).value
    w_out = teleport_state(w_in, n_tau)

    outdir = _resolve_out(args.out or ".") or "."
    os.makedirs(outdir, exist_ok=True)
    in_files = save_grid(w_in, os.path.join(outdir, "input_wigner"))
    out_files = save_grid(w_out, os.path.join(outdir, "teleported_wigner"))

    stats = photon_statistics(w_out)
    quad0 = quadrature_statistics(w_out, 0.0)
    in_stats = photon_statistics(w_in)
    in_var = min(
        quadrature_statistics(w_in, 0.0).variance,
        quadrature_statistics(w_in, np.pi / 2).variance,
    )
    q_grid = convert_sigma(w_out, -1.0)
    report = {
        "command": "teleport-export",
        "state": label,
        "n_tau": _round12(n_tau),
        "channel": channel,
        "files": {"input": list(in_files), "teleported": list(out_files)},
        "teleported_moments": {
            "mean_photon": _round12(stats.mean),
            "photon_variance": _round12(stats.variance),
            "quadrature_mean": _round12(quad0.mean),
            "quadrature_variance": _round12(quad0.variance),
        },
        "thresholds": {
            "sub_poisson": _maybe_round(sub_poisson_threshold(in_stats)),
            "squeezing": _maybe_round(squeezing_threshold(in_var)),
            "p_positive_after_teleport": bool(p_positive_after_teleport(n_tau)),
        },
        "grid_min": {
            "teleported_wigner": _round12(float(w_out.values.min())),
            "q_ordering": _round12(float(q_grid.values.min())),
        },
    }
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    sys.stdout.write(f"wrote {report_path}\n")
    return 0


def _maybe_round(x):
    return None if x is None else _round12(x)


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value file supplying flag defaults")
    sub.add_argument("--squeezing", help="channel squeezing s_qc (VALUE or START:STOP:STEPS)")
    sub.add_argument("--nbar", help="bath mean occupation (VALUE or START:STOP:STEPS)")
    sub.add_argument("--time", help="renormalized time T in [0,1] (VALUE or START:STOP:STEPS)")
    sub.add_argument("--ntau", help="teleportation noise directly (VALUE or START:STOP:STEPS)")
    sub.add_argument("--state", help="vacuum | fock:m | squeezed:s_o | coherent:re,im")
    sub.add_argument("--grid-extent", dest="grid_extent", help="phase-space half-width")
    sub.add_argument("--grid-res", dest="grid_res", help="grid points per axis")
    sub.add_argument("--out", help="output path (relative paths land in $CVTELEPORT_OUTDIR)")
    sub.add_argument("--format", help="csv or json (tables), text or json (verify)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cvteleport", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("noise-sweep", help="tabulate noise factor, gap, separability")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_noise_sweep)

    table = commands.add_parser("fidelity-table", help="closed-form vs grid fidelity")
    _add_common(table)
    table.set_defaults(func=cmd_fidelity_table)

    verify = commands.add_parser("verify", help="run the acceptance checks")
    verify.add_argument("level", nargs="?", choices=VERIFY_LEVELS, default=None)
    verify.add_argument("--mutate-kernel", dest="mutate_kernel", help=argparse.SUPPRESS)
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)

    export = commands.add_parser("teleport-export", help="write input/teleported grids + report")
    _add_common(export)
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
    except (ConfigurationError, DomainError, CvtError) as exc:
        sys.stderr.write(f"cvteleport: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"cvteleport: i/o: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
