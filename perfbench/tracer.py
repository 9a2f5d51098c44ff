"""In-memory spans around the calls that reach each cvteleport layer.

Tracing works by swapping the traced functions for timing wrappers in the
namespace of every loaded ``cvteleport`` module, so a call made by a
workload and a call made inside the package (the CLI saving a grid, say)
both leave a span, and the span of the outer call is the parent of the
inner one.  Untraced phases run the original functions, with no wrapper
at all.  Spans stay in memory and are written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter

# layer -> functions whose calls are spanned
TRACED = {
    "channel": ("evolve_channel", "noise_factor", "is_separable"),
    "separability": ("channel_is_separable_via_appendix", "decompose", "reconstruct_p"),
    "states": ("fock_wigner", "squeezed_vacuum_wigner", "coherent_wigner", "vacuum_wigner"),
    "teleport": ("teleport_state", "measurement_density", "protocol_oracle"),
    "phase_space": ("convert_sigma", "save_grid", "load_grid"),
    "fidelity": ("overlap_fidelity", "fock_fidelity", "squeezed_fidelity"),
    "nonclassicality": ("photon_statistics", "quadrature_statistics"),
    "numerics": ("grid_integrate",),
    "cli": ("main",),
}
CLI_COMMANDS = ("teleport-export", "fidelity-table", "noise-sweep")


def span_names():
    """Every span name the per-layer metrics report, in a fixed order."""
    names = []
    for layer, functions in TRACED.items():
        for fn in functions:
            if layer == "cli":
                names += [f"cli.{c}" for c in CLI_COMMANDS]
            elif fn == "protocol_oracle":
                names += ["teleport.protocol_oracle.profile", "teleport.protocol_oracle.spline"]
            else:
                names.append(f"{layer}.{fn}")
    return names


class Tracer:
    """Collects spans ``(name, start, end, parent, task, error)`` and the
    work counts measured at the same call boundaries."""

    def __init__(self):
        self.spans = []
        self.task = "setup"
        self._open = []
        self._patched = []
        self.counts = {
            "teleport.teleport_state.grid_points": 0,
            "phase_space.convert_sigma.grid_points": 0,
            "teleport.protocol_oracle.sample_points": 0,
            "phase_space.save_grid.bytes": 0,
            "phase_space.load_grid.bytes": 0,
        }
        self._seen_kernels = set()
        self._repeats = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            self.spans.append((span_name, 0.0, 0.0, parent, self.task, "unfinished"))
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[index] = (span_name, start, perf_counter(), parent, self.task, type(exc).__name__)
                raise
            finally:
                self._open.pop()
            end = perf_counter()
            error = None
            if span_name.startswith("cli.") and result != 0:
                error = f"exit code {result}"
            self.spans[index] = (span_name, start, end, parent, self.task, error)
            if observe is not None and error is None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap every traced function for its wrapper in all loaded
        cvteleport modules; :meth:`remove` puts the originals back.

        Workloads pass the grid, the noise and the CLI argv positionally
        and the oracle order by keyword, which the span names and counts
        below rely on."""
        import cvteleport

        modules = [m for k, m in sys.modules.items() if k == "cvteleport" or k.startswith("cvteleport.")]
        for layer, functions in TRACED.items():
            owner = getattr(cvteleport, layer)
            for fn_name in functions:
                original = getattr(owner, fn_name)
                if layer == "cli":
                    name = lambda a: "cli." + a[0][0]
                elif fn_name == "protocol_oracle":
                    name = lambda a: "teleport.protocol_oracle." + (
                        "spline" if a[0].profile is None else "profile"
                    )
                else:
                    name = f"{layer}.{fn_name}"
                observe = getattr(self, f"_observe_{fn_name}", None)
                wrapper = self._wrap(name, original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- counts ------------------------------------------------------------

    def _observe_teleport_state(self, args, kwargs, result):
        grid, n_tau = args[0], float(args[1])
        self.counts["teleport.teleport_state.grid_points"] += grid.resolution**2
        key = (grid.extent, grid.resolution, n_tau)
        if key in self._seen_kernels:
            self._repeats += 1
        self._seen_kernels.add(key)

    def _observe_convert_sigma(self, args, kwargs, result):
        self.counts["phase_space.convert_sigma.grid_points"] += args[0].resolution ** 2

    def _observe_protocol_oracle(self, args, kwargs, result):
        order = kwargs["order"]
        self.counts["teleport.protocol_oracle.sample_points"] += result.resolution**2 * order**2

    def _observe_save_grid(self, args, kwargs, result):
        self.counts["phase_space.save_grid.bytes"] += sum(os.path.getsize(p) for p in result)

    def _observe_load_grid(self, args, kwargs, result):
        self.counts["phase_space.load_grid.bytes"] += sum(
            os.path.getsize(args[0] + ext) for ext in (".csv", ".json")
        )

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: calls, busy time, median call time and errors
        per span name, then the counts and shares."""
        by_name = {name: [] for name in span_names()}
        errors = dict.fromkeys(by_name, 0)
        for name, start, end, _parent, _task, error in self.spans:
            by_name.setdefault(name, []).append(end - start)
            errors[name] = errors.get(name, 0) + (error is not None)
        out = {}
        for name, durations in by_name.items():
            out[f"{name}.calls"] = (len(durations), "count")
            out[f"{name}.busy_s"] = (sum(durations), "s")
            out[f"{name}.p50_ms"] = (statistics.median(durations) * 1e3 if durations else 0.0, "ms")
            out[f"{name}.errors"] = (errors[name], "count")
        for name, value in self.counts.items():
            out[name] = (value, "bytes" if name.endswith(".bytes") else "count")
        teleports = len(by_name["teleport.teleport_state"])
        out["teleport.teleport_state.repeat_share"] = (self._repeats / teleports if teleports else 0.0, "ratio")
        profile = len(by_name["teleport.protocol_oracle.profile"])
        spline = len(by_name["teleport.protocol_oracle.spline"])
        out["teleport.protocol_oracle.spline_share"] = (
            spline / (profile + spline) if profile + spline else 0.0,
            "ratio",
        )
        return out

    def dump(self, path):
        """Write every span once, as JSON, relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "task": task,
                "error": error,
            }
            for name, start, end, parent, task, error in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")
