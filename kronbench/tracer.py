"""Spans around kronrec's public functions, recorded from outside the package.

Modules import each other's functions by name (density, lattice_structure
and toeplitz each hold their own `det_exact`), so a function is wrapped in
every kronrec module namespace that binds it.  Calls made inside the
program then go through the wrapper too.  Functions not listed here, such
as everything in `intervals`, count toward their caller's self time.

Each span keeps its name, start and end times, parent span and task id.
Spans stay in memory until `write_spans`.  Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "poly_core": ("roots", "squarefree_factors", "mahler_measure", "refined_product_interval"),
    "density": (
        "epsilon_bound",
        "factor_real",
        "witness",
        "is_covered",
        "critical_epsilon",
        "certify_non_density",
    ),
    "exact_linalg": ("det_exact", "solve_exact", "hnf", "integer_kernel"),
    "lattice_structure": (
        "newton_polygon",
        "basis_N",
        "integral_basis",
        "canonical_basis_M",
        "check_basis_certificate",
    ),
    "recurrence_matrices": ("recurrence_extend", "band_rows"),
    "toeplitz": ("toeplitz_det_direct", "gram_det", "trench_data", "gram_growth", "lyons_ratio"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Wraps the listed functions; records spans only while `recording` is set."""

    def __init__(self):
        self.recording = False
        self.task = -1
        self.spans: list = []
        self._open: list[int] = []
        self._child_time: list[float] = []
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.det_ops = 0
        self.det_max_n = 0
        self.covered = 0
        self.repeats = {"poly_core.roots": 0, "lattice_structure.basis_N": 0}
        self._seen = {"poly_core.roots": set(), "lattice_structure.basis_N": set()}
        self._restore: list[tuple[object, str, object]] = []

    def start_task(self, task_id: int) -> None:
        self.task = task_id
        for seen in self._seen.values():
            seen.clear()

    def _note(self, name: str, args, result) -> None:
        if name == "exact_linalg.det_exact":
            n = len(args[0])
            self.det_ops += n**3
            self.det_max_n = max(self.det_max_n, n)
        elif name == "density.is_covered":
            self.covered += bool(result)
        elif name in self._seen:
            poly = args[0]
            key = poly.coeffs if name == "poly_core.roots" else (poly.coeffs, args[1])
            if key in self._seen[name]:
                self.repeats[name] += 1
            self._seen[name].add(key)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += end - start
                self.spans[index] = (name, start, end, parent, self.task)
                self.calls[name] += 1
                self.self_s[name] += end - start - children
            self._note(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function in every loaded kronrec module."""
        wrappers = {}
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"kronrec.{mod_name}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{fn}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kronrec" and not mod_name.startswith("kronrec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["exact_linalg.det_exact.ops"] = (self.det_ops, "ops_computed")
        out["exact_linalg.det_exact.max_n"] = (self.det_max_n, "order")
        for name, repeats in self.repeats.items():
            calls = self.calls[name]
            out[f"{name}.repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
        probes = self.calls["density.is_covered"]
        out["density.is_covered.covered_ratio"] = (self.covered / probes if probes else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        """One JSON list per line: name, start, end, parent index, task id."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
